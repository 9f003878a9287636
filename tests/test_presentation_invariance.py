"""One shift, several presentations: every presentation-independent answer
must agree.

The forbidden-word route builds the prefix automaton of F.  The higher-block
recoding it replaced is kept below, verbatim, as the reference it is checked
against.  SFTs are also built as a matrix, as forbidden 2-blocks and as a
labeled graph, and their 2- and 3-block conjugates must keep K0/K1.  Random
labeled graphs, their 2- and 3-block presentations and their symbol
renamings must keep K0/K1 and the four condition statuses, and condition I
on an SFT must be condition (L) of its graph.
"""

import random
from itertools import combinations, product

import pytest

import shiftca.presentations
from shiftca import (
    aperiodic_past,
    build_tower,
    condition_I,
    condition_star,
    dimension_group,
    ideal_lattice,
    irreducible_past,
    k_groups,
)
from shiftca.cli import main
from shiftca.errors import EmptyShift
from shiftca.presentations import (
    EPSILON,
    Graph,
    Presentation,
    Word,
    _essentialize,
    language,
    to_labeled_graph,
)


def _block_recoding(p: Presentation):
    """The higher-block recoding of a forbidden-word presentation, as
    ``to_labeled_graph`` built it before the prefix automaton."""
    alphabet = p.alphabet
    m = max((len(w) for w in p.forbidden), default=1)
    b = max(1, m - 1)
    forb = set(p.forbidden)

    def factor_free(word: Word) -> bool:
        for i in range(len(word)):
            for j in range(i + 1, len(word) + 1):
                if word[i:j] in forb:
                    return False
        return True

    blocks: list[Word] = []
    stack: list[Word] = [EPSILON]
    # depth-first in alphabet order builds blocks in lexicographic order
    while stack:
        w = stack.pop()
        if len(w) == b:
            blocks.append(w)
            continue
        for s in reversed(alphabet.symbols):
            w2 = w + (s,)
            if factor_free(w2):
                stack.append(w2)
    if not blocks:
        raise EmptyShift("every block of the recoding length is forbidden")
    index = {w: i for i, w in enumerate(blocks)}
    edges = []
    for w in blocks:
        for s in alphabet.symbols:
            w2 = w + (s,)
            if not factor_free(w2):
                continue
            tail = w2[1:]
            if tail in index:
                edges.append((index[w], index[tail], alphabet.index(w[0])))
    return _essentialize(alphabet, edges, lambda v: alphabet.format_word(blocks[v]))


def _answers(build):
    """Every answer that does not depend on the presentation, or "empty"."""
    try:
        g = build()
    except EmptyShift:
        return "empty"
    tw = build_tower(g)
    lattice = ideal_lattice(tw)
    return {
        "m": [lv.m for lv in tw.levels],
        "stabilized_at": tw.stabilized_at,
        "k_groups": k_groups(tw).to_json_dict(),
        "dimension_group": dimension_group(tw, k_max=3).to_json_dict(),
        "conditions": [
            check(tw).status
            for check in (condition_I, condition_star, aperiodic_past, irreducible_past)
        ],
        "radii": [check(tw).method for check in (aperiodic_past, irreducible_past)],
        "ideals": (lattice.elements, lattice.order),
    }


def _assert_same_as_block_recoding(p: Presentation):
    want = _answers(lambda: _block_recoding(p))
    assert _answers(lambda: to_labeled_graph(p)) == want, p.forbidden
    return want


def _contains_another(words) -> bool:
    return any(u != w and any(w[i:i + len(u)] == u for i in range(len(w)))
               for u in words for w in words)


# -- forbidden words: prefix automaton against the block recoding ------------------


def test_prefix_automaton_matches_block_recoding_on_short_binary_sets():
    """Every set of at most two forbidden words of length <= 3 over {0, 1}."""
    words = [w for k in (1, 2, 3) for w in product("01", repeat=k)]
    sets = [()] + [(w,) for w in words] + list(combinations(words, 2))
    assert len(sets) == 106
    empty = sum(_assert_same_as_block_recoding(Presentation.forbidden_words("01", s)) == "empty"
                for s in sets)
    assert 0 < empty < len(sets)


def _random_forbidden_sets(rng, count):
    """Seeded sets over 1-3 symbols with words of length <= 6 (<= 5 over
    three symbols, whose 3^5-block recoding takes about a second); every
    third set holds a word together with a word that has it as a factor."""
    for i in range(count):
        syms = "abc"[: rng.randint(1, 3)]
        longest = 6 if len(syms) < 3 else 5

        def word(lo, hi):
            return "".join(rng.choice(syms) for _ in range(rng.randint(lo, hi)))

        words = [word(1, longest) for _ in range(rng.randint(1, 3))]
        if i % 3 == 0:
            inner = word(1, longest - 2)
            words += [inner, word(0, 1) + inner + word(0, 1)]
        yield Presentation.forbidden_words(syms, [tuple(w) for w in words])


def test_prefix_automaton_matches_block_recoding_on_random_sets():
    nested = empty = 0
    for p in _random_forbidden_sets(random.Random(60601), 150):
        nested += _contains_another(p.forbidden)
        empty += _assert_same_as_block_recoding(p) == "empty"
    assert nested >= 50 and 0 < empty < 150


def test_zero_runs_match_block_recoding():
    for k in range(3, 9):
        p = Presentation.forbidden_words("01", [("0",) * k])
        assert _assert_same_as_block_recoding(p)["m"] == list(range(1, k + 1)) + [k]


def test_zero_run_12_is_a_12_state_automaton():
    p = Presentation.forbidden_words("01", [("0",) * 12])
    g = to_labeled_graph(p)
    assert g.n_vertices == 12
    assert g.vertex_names[:3] == ("", "0", "00")
    tw = build_tower(p, monoid_cap=1000)
    assert [lv.m for lv in tw.levels] == list(range(1, 13)) + [12]
    assert tw.stabilized_at == 11
    rep = k_groups(tw)
    assert (str(rep.k0), str(rep.k1)) == ("Z/11", "0")


def test_no_forbidden_word_is_the_one_vertex_full_shift():
    g = to_labeled_graph(Presentation.forbidden_words(("a", "b"), []))
    assert g.n_vertices == 1
    assert g.edges == ((0, 0, 0), (0, 0, 1))
    assert g.vertex_names == ("",)


@pytest.mark.parametrize("forbidden", [["0", "1"], ["1", "00", "01"], ["00", "01", "10", "11"]])
def test_forbidden_sets_without_points_are_empty(forbidden, tmp_path, capsys):
    p = Presentation.forbidden_words("01", [tuple(w) for w in forbidden])
    with pytest.raises(EmptyShift):
        to_labeled_graph(p)
    path = tmp_path / "empty.json"
    path.write_text(p.to_json())
    assert main(["kgroups", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# -- SFTs: matrix, forbidden 2-blocks, labeled graph, higher-block conjugates -----


SFTS = [
    ((1, 1), (1, 0)),                      # golden mean
    ((1, 1), (1, 1)),                      # full 2-shift
    ((1, 1), (0, 1)),                      # reducible, triangular
    ((0, 1), (1, 0)),                      # one periodic orbit
    ((1, 1, 1), (1, 1, 1), (1, 1, 1)),     # full 3-shift
    ((0, 1, 1), (0, 1, 1), (0, 1, 0)),     # zero column
    ((1, 1, 0), (0, 0, 1), (1, 0, 0)),
]


def _random_matrices(rng, count):
    while count:
        n = rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        if all(any(r) for r in rows):
            count -= 1
            yield rows


def _sft(matrix):
    return Presentation.sft("abcd"[: len(matrix)], matrix)


def _as_forbidden_2_blocks(matrix):
    """The forbidden 2-blocks of the matrix, plus every symbol whose column
    is zero: the SFT route never emits such a symbol."""
    syms = "abcd"[: len(matrix)]
    n = len(matrix)
    words = [(syms[i], syms[j]) for i in range(n) for j in range(n) if not matrix[i][j]]
    words += [(syms[j],) for j in range(n) if not any(row[j] for row in matrix)]
    return Presentation.forbidden_words(syms, words)


def _as_labeled_graph(matrix):
    """Vertex i emits i on its way to j when A(i, j) = 1.  Symbols with a
    zero column get no edges, since the SFT route never emits them."""
    syms = "abcd"[: len(matrix)]
    n = len(matrix)
    edges = [
        (i, j, syms[i])
        for i in range(n)
        for j in range(n)
        if matrix[i][j] and any(row[i] for row in matrix)
    ]
    return Presentation.labeled_graph(syms, n, edges)


def _higher_block(matrix, n):
    """The n-block presentation: one symbol per admissible n-block, u -> v
    iff v extends u's overlap (Lind-Marcus 1.4)."""
    blocks = language(_sft(matrix), n)
    names = ["".join(b) for b in blocks]
    return Presentation.sft(
        names, [[int(u[1:] == v[:-1]) for v in blocks] for u in blocks]
    )


def _corpus():
    yield from SFTS
    yield from _random_matrices(random.Random(60602), 40)


def test_sft_three_presentations_agree():
    for matrix in _corpus():
        want = _answers(lambda: to_labeled_graph(_sft(matrix)))
        for other in (_as_forbidden_2_blocks(matrix), _as_labeled_graph(matrix)):
            assert _answers(lambda: to_labeled_graph(other)) == want, (matrix, other.kind)


def test_higher_block_conjugates_keep_k_groups():
    checked = 0
    for matrix in _corpus():
        if not all(any(row[j] for row in matrix) for j in range(len(matrix))):
            continue  # a zero column leaves points without a predecessor block
        want = k_groups(build_tower(_sft(matrix))).to_json_dict()
        for n in (2, 3):
            got = k_groups(build_tower(_higher_block(matrix, n))).to_json_dict()
            assert (got["k0"], got["k1"]) == (want["k0"], want["k1"]), (matrix, n)
        checked += 1
    assert checked >= 20


# -- labeled graphs: k-block presentations and symbol permutations ----------------


def _random_graphs(rng, count):
    """Seeded labeled graphs with 2-5 vertices over two symbols whose
    essential part keeps at least two vertices."""
    while count:
        nv = rng.randint(2, 5)
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice("ab"))
            for _ in range(rng.randint(2, 3 * nv))
        }
        p = Presentation.labeled_graph("ab", nv, sorted(edges))
        try:
            if to_labeled_graph(p).n_vertices < 2:
                continue
        except EmptyShift:
            continue
        count -= 1
        yield p


def _graph_k_block(p: Presentation, k: int) -> Presentation:
    """The k-block presentation: a vertex per path e_1..e_{k-1}, and an
    edge from it to e_2..e_k labeled with the k-block that e_1..e_k reads.
    Its paths read the k-block recodings of the points, a one-sided
    conjugacy (Lind-Marcus 1.4)."""
    out: dict[int, list] = {}
    for e in p.edges:
        out.setdefault(e[0], []).append(e)
    paths = [(e,) for e in p.edges]
    for _ in range(k - 2):
        paths = [q + (e,) for q in paths for e in out.get(q[-1][1], ())]
    index = {q: i for i, q in enumerate(paths)}
    edges = [
        (index[q], index[q[1:] + (e,)], "".join(f[2] for f in q + (e,)))
        for q in paths
        for e in out.get(q[-1][1], ())
    ]
    return Presentation.labeled_graph(
        sorted({label for _, _, label in edges}), len(paths), edges
    )


def _rotated_symbols(p: Presentation) -> Presentation:
    """The same graph with every label renamed to the next symbol of the
    alphabet, the last to the first."""
    syms = p.alphabet.symbols
    image = dict(zip(syms, syms[1:] + syms[:1]))
    return Presentation.labeled_graph(
        syms, p.n_vertices, [(s, t, image[a]) for s, t, a in p.edges]
    )


def _conjugacy_answers(p: Presentation):
    """K0, K1, exactness and the four condition statuses.  The ideal count
    is left out: it depends on the presentation today."""
    tw = build_tower(p)
    rep = k_groups(tw, allow_partial=True)
    return (
        rep.k0,
        rep.k1,
        rep.exact,
        [check(tw).status
         for check in (condition_I, condition_star, aperiodic_past, irreducible_past)],
    )


def test_conjugate_presentations_agree():
    """2- and 3-block presentations and symbol renamings of seeded random
    labeled graphs keep every conjugacy invariant the tower computes."""
    recodings = 0
    for p in _random_graphs(random.Random(60603), 146):
        want = _conjugacy_answers(p)
        two_block = _graph_k_block(p, 2)
        for q in (two_block, _graph_k_block(p, 3), _rotated_symbols(p),
                  _rotated_symbols(two_block)):
            assert _conjugacy_answers(q) == want, (p, q)
            recodings += 1
    assert recodings == 4 * 146


# -- condition I against condition (L) on SFTs --------------------------------------


def _every_cycle_has_an_exit(matrix) -> bool:
    """Condition (L) on the graph with an edge i -> j when A[i][j] = 1.  A
    cycle has no exit iff each of its vertices has exactly one out-edge, so
    it is found by following single out-edges back to the start."""
    n = len(matrix)
    succ = [[j for j in range(n) if matrix[i][j]] for i in range(n)]
    for v in range(n):
        w = v
        for _ in range(n):
            if len(succ[w]) != 1:
                break
            w = succ[w][0]
            if w == v:
                return False
    return True


def _all_matrices(n):
    rows = [r for r in product((0, 1), repeat=n) if any(r)]
    return product(rows, repeat=n)


def _random_larger_matrices(rng, count):
    while count:
        n = rng.randint(4, 6)
        rows = tuple(tuple(int(rng.random() < 0.4) for _ in range(n)) for _ in range(n))
        if all(any(r) for r in rows):
            count -= 1
            yield rows


def test_condition_I_is_condition_L_on_sfts():
    """Cuntz-Krieger condition (I) for O_A is condition (L) on A's graph: the
    tower's verdict must match it, exactly, on every SFT with n <= 3 and on
    seeded random ones with n = 4-6."""
    matrices = [m for n in (1, 2, 3) for m in _all_matrices(n)]
    assert len(matrices) == 1 + 9 + 343
    matrices += _random_larger_matrices(random.Random(60604), 159)
    holds = 0
    for matrix in matrices:
        verdict = condition_I(build_tower(Presentation.sft("abcdef"[: len(matrix)], matrix)))
        assert verdict.method == "exact", matrix
        assert (verdict.status == "holds") == _every_cycle_has_an_exit(matrix), matrix
        holds += verdict.status == "holds"
    assert 0 < holds < len(matrices)


# -- essentialization: the worklist trim against rounds of full rescans -------------


def _essentialize_by_rescans(alphabet, edges, name):
    """``_essentialize`` as it was before the worklist trim: each round
    rescans every edge and deletes the vertices left without an out-edge,
    so a chain of n dead vertices takes n rounds."""
    alive = {src for (src, dst, a) in edges}
    while True:
        have_out = {src for (src, dst, a) in edges if src in alive and dst in alive}
        dead = alive - have_out
        if not dead:
            break
        alive -= dead
    if not alive:
        raise EmptyShift("no vertex supports an infinite path")
    order = sorted(alive)
    remap = {v: i for i, v in enumerate(order)}
    kept = sorted(
        (remap[s], remap[t], a)
        for (s, t, a) in edges
        if s in alive and t in alive
    )
    return Graph(
        alphabet=alphabet,
        n_vertices=len(order),
        edges=tuple(kept),
        vertex_names=tuple(name(v) for v in order),
    )


def _dead_end_chain(n):
    """A self-loop at vertex 0 and the chain 1 -> 2 -> ... -> n into a dead
    end: the rescans delete one vertex of the chain per round."""
    edges = [(0, 0, "a"), (0, 1, "a")] + [(i, i + 1, "a") for i in range(1, n)]
    return Presentation.labeled_graph(("a",), n + 1, edges)


def test_essentialize_matches_rescans(monkeypatch):
    """Every graph that ``to_labeled_graph`` essentializes on the small-graph,
    random-graph and forbidden-word corpora, and the dead-end chain, comes
    out equal to the rescans' graph, or empty for both."""
    calls = []

    def both(alphabet, edges, name):
        try:
            want = _essentialize_by_rescans(alphabet, edges, name)
        except EmptyShift:
            want = "empty"
        try:
            got = _essentialize(alphabet, edges, name)
        except EmptyShift:
            got = "empty"
        assert got == want, edges
        calls.append(got == "empty")
        if got == "empty":
            raise EmptyShift("no vertex supports an infinite path")
        return got

    monkeypatch.setattr(shiftca.presentations, "_essentialize", both)
    presentations = [
        q
        for matrix in _corpus()
        for q in (_sft(matrix), _as_forbidden_2_blocks(matrix), _as_labeled_graph(matrix))
    ]
    presentations += _random_graphs(random.Random(60603), 146)
    words = [w for k in (1, 2, 3) for w in product("01", repeat=k)]
    presentations += [
        Presentation.forbidden_words("01", s)
        for s in [(w,) for w in words] + list(combinations(words, 2))
    ]
    presentations += _random_forbidden_sets(random.Random(60601), 150)
    presentations += [_dead_end_chain(n) for n in (1, 2, 1000)]
    for p in presentations:
        try:
            to_labeled_graph(p)
        except EmptyShift:
            pass
    assert 0 < sum(calls) < len(calls)
    assert to_labeled_graph(_dead_end_chain(1000)).n_vertices == 1
