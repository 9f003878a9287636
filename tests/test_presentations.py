import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from shiftca.errors import (
    DanglingEdge,
    DuplicateSymbol,
    EmptyShift,
    InputFormatError,
    InvalidSymbol,
    WordNotInLanguage,
    ZeroRow,
)
from shiftca.presentations import (
    EPSILON,
    Graph,
    Presentation,
    _essentialize,
    is_in_language,
    language,
    language_upto,
    past_layers,
    require_word_in_language,
    to_labeled_graph,
)

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)


def test_sft_validation():
    with pytest.raises(ZeroRow):
        Presentation.sft(("a", "b"), ((1, 1), (0, 0)))
    with pytest.raises(InputFormatError):
        Presentation.sft(("a", "b"), ((1, 1),))
    with pytest.raises(InputFormatError):
        Presentation.sft(("a", "b"), ((1, 2), (1, 1)))
    with pytest.raises(DuplicateSymbol):
        Presentation.sft(("a", "a"), ((1, 1), (1, 1)))


def test_labeled_graph_validation():
    with pytest.raises(DanglingEdge):
        Presentation.labeled_graph(("a",), 1, [(0, 3, "a")])
    with pytest.raises(InvalidSymbol):
        Presentation.labeled_graph(("a",), 1, [(0, 0, "b")])
    # a graph with no infinite paths presents the empty shift
    with pytest.raises(EmptyShift):
        to_labeled_graph(
            Presentation.labeled_graph(("a",), 2, [(0, 1, "a")])
        )


def test_json_round_trip():
    for p in (
        GOLDEN,
        EVEN,
        Presentation.forbidden_words(("0", "1"), [("1", "1")]),
    ):
        doc = json.loads(p.to_json())
        assert doc["format"] == "shiftspace-v1"
        assert Presentation.from_json(p.to_json()) == p


def test_from_dict_rejects_unknown_format():
    with pytest.raises(InputFormatError):
        Presentation.from_dict({"format": "something-else"})


def test_golden_language_counts():
    # Fibonacci growth: no "11" factor
    assert [len(language(GOLDEN, k)) for k in range(6)] == [1, 2, 3, 5, 8, 13]
    assert len(language_upto(GOLDEN, 4)) == 1 + 2 + 3 + 5 + 8
    assert is_in_language(GOLDEN, ("0", "1", "0"))
    assert not is_in_language(GOLDEN, ("1", "1"))


def test_even_shift_language_counts():
    # odd blocks of 1s between 0s are forbidden
    assert [len(language(EVEN, k)) for k in range(5)] == [1, 2, 4, 7, 12]
    assert is_in_language(EVEN, ("0", "1", "1", "0"))
    assert not is_in_language(EVEN, ("0", "1", "0"))


def test_forbidden_words_matches_matrix_presentation():
    fw = Presentation.forbidden_words(("0", "1"), [("1", "1")])
    for k in range(6):
        assert language(fw, k) == language(GOLDEN, k)


def test_language_is_shortlex_and_factor_closed():
    words = language_upto(EVEN, 4)
    keyed = sorted(words, key=lambda w: (len(w), w))
    assert list(words) == keyed
    wordset = set(words)
    for w in words:
        for i in range(len(w)):
            for j in range(i, len(w) + 1):
                assert w[i:j] in wordset


def test_past_layers_build_no_layer_early(monkeypatch):
    read = []
    pre_row = Graph.pre_row
    monkeypatch.setattr(Graph, "pre_row", lambda g, s: read.append(s) or pre_row(g, s))
    g = to_labeled_graph(Presentation.forbidden_words("01", [("0",) * 24]))
    layers = past_layers(g, g.full_mask)
    assert [len(next(layers)) for _ in range(4)] == [1, 2, 4, 8]
    # layer 3 reads the rows of layer 2's sets; layer 4 waits for a request
    assert len(read) == 1 + 2 + 4
    assert next(past_layers(g, 0)) == []


def test_require_word_in_language():
    g = to_labeled_graph(GOLDEN)
    require_word_in_language(g, ("0", "1"))
    with pytest.raises(WordNotInLanguage):
        require_word_in_language(g, ("1", "1"))


def test_essentialization_prunes_dead_vertices():
    # vertex 2 has no outgoing edge; it must not survive
    p = Presentation.labeled_graph(
        ("a", "b"), 3, [(0, 0, "a"), (0, 1, "b"), (1, 0, "a"), (0, 2, "b")]
    )
    g = to_labeled_graph(p)
    assert g.n_vertices == 2
    assert is_in_language(p, ("b", "a"))


def test_essentialization_work_follows_the_edges():
    # a declared vertex count far above the edges' range costs nothing: the
    # search starts from the edges' sources and only kept vertices are named
    p = Presentation.labeled_graph(("a",), 10 ** 6, [(7, 7, "a"), (3, 999_999, "a")])
    tracemalloc.start()
    try:
        g = to_labeled_graph(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n_vertices, g.vertex_names, g.edges) == (1, ("7",), ((0, 0, 0),))
    assert peak < 1 << 20


def _graph_by_suffix_scans(p):
    """The forbidden-word graph as built before failure links: each
    (vertex, symbol) pair lists every suffix of q·a, which made 0^k cost
    k³."""
    alphabet = p.alphabet
    forb = set(p.forbidden)
    states = sorted(
        {EPSILON} | {w[:i] for w in p.forbidden for i in range(len(w))},
        key=alphabet.sort_key,
    )
    index = {q: i for i, q in enumerate(states)}
    edges = []
    for q in states:
        for a, s in enumerate(alphabet.symbols):
            qa = q + (s,)
            suffixes = [qa[i:] for i in range(len(qa) + 1)]
            if not any(u in forb for u in suffixes):
                target = next(u for u in suffixes if u in index)
                edges.append((index[q], index[target], a))
    return _essentialize(alphabet, edges, lambda v: alphabet.format_word(states[v]))


def _forbidden_sets():
    """Seeded forbidden sets over 1 to 3 symbols, each word either random or
    cut from an earlier one (a prefix or a suffix, maybe extended), then
    0^k for k up to 40."""
    rng = random.Random(2_8028)
    for _ in range(1500):
        syms = "abc"[: rng.randint(1, 3)]
        words = []
        for _ in range(rng.randint(1, 6)):
            if words and rng.random() < 0.5:
                w = rng.choice(words)
                cut = rng.randint(1, len(w))
                w = w[:cut] if rng.random() < 0.5 else w[-cut:]
                w += tuple(rng.choice(syms) for _ in range(rng.randint(0, 2)))
            else:
                w = tuple(rng.choice(syms) for _ in range(rng.randint(1, 6)))
            words.append(w)
        yield Presentation.forbidden_words(tuple(syms), words)
    for k in range(1, 41):
        yield Presentation.forbidden_words(("0", "1"), [("0",) * k])


def test_forbidden_word_graph_matches_suffix_scans():
    # the failure-link construction gives the same vertices, in the same
    # order, and the same edge tuples as scanning every suffix of q·a
    graphs = empty = prefixed = suffixed = 0
    for p in _forbidden_sets():
        ws = p.forbidden
        prefixed += any(u != w and w[: len(u)] == u for u in ws for w in ws)
        suffixed += any(u != w and w[-len(u):] == u for u in ws for w in ws)
        try:
            want = _graph_by_suffix_scans(p)
        except EmptyShift:
            with pytest.raises(EmptyShift):
                to_labeled_graph(p)
            empty += 1
            continue
        assert to_labeled_graph(p) == want, p
        graphs += 1
    assert graphs > 900 and empty > 400 and prefixed > 800 and suffixed > 800


def test_word_formatting_multichar_symbols():
    p = Presentation.sft(("aa", "bb"), ((1, 1), (1, 1)))
    g = to_labeled_graph(p)
    w = ("aa", "bb")
    assert g.alphabet.parse_word(g.alphabet.format_word(w)) == w


@given(st.lists(st.sampled_from(("0", "1")), max_size=6))
def test_membership_matches_point_extension(prefix):
    # u is in the language iff it end-walks to a nonempty vertex set,
    # which for an essential graph means some point starts with u
    w = tuple(prefix)
    g = to_labeled_graph(GOLDEN)
    brute = all(w[i : i + 2] != ("1", "1") for i in range(len(w)))
    assert is_in_language(g, w) == brute
