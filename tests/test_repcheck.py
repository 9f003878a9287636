"""Finite-rank truncations and machine checks of the operator relations."""

import itertools

import numpy as np
import pytest

import shiftca.repcheck
from shiftca.errors import (
    DepthTooLarge,
    InputFormatError,
    RelationBudgetExceeded,
    WrongKind,
)
from shiftca.presentations import Presentation
from shiftca.repcheck import (
    RELATION_CAP,
    build_truncation,
    check_ck_relations,
    check_universal_relations,
    partial_isometry_product,
)

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)
ZEROCOL = Presentation.sft(("0", "1", "2"), ((0, 1, 1), (0, 1, 1), (0, 1, 0)))


def test_golden_small_basis_frozen():
    r = build_truncation(GOLDEN, 3)
    assert r.size == 11
    assert r.offsets == (0, 1, 3, 6, 11)
    alpha = r.graph.alphabet
    assert [alpha.format_word(w) for w in r.words] == [
        "", "0", "1", "00", "01", "10", "000", "001", "010", "100", "101",
    ]
    assert r.count_upto(2) == 6
    assert r.count_upto(99) == 11
    assert r.index_of(("1", "0")) == 5


def test_truncation_input_validation():
    with pytest.raises(InputFormatError):
        build_truncation(GOLDEN, 0)
    with pytest.raises(DepthTooLarge):
        build_truncation(GOLDEN, 8, basis_cap=10)


def test_basis_cap_fires_before_the_next_layer_is_built(monkeypatch):
    # golden-mean layers hold 1, 2, 3, 5, ... words: 11 > 10 after layer 3
    pulled = []
    real = shiftca.repcheck.trie_layers

    def counting(auto):
        for parent, last in real(auto):
            pulled.append(len(parent))
            yield parent, last

    monkeypatch.setattr(shiftca.repcheck, "trie_layers", counting)
    with pytest.raises(DepthTooLarge):
        build_truncation(GOLDEN, 8, basis_cap=10)
    assert pulled == [1, 2, 3, 5]


def test_empty_word_operator_is_identity():
    r = build_truncation(GOLDEN, 4)
    assert np.array_equal(r.operator(()), np.arange(r.size))


def test_operators_truncate_admissible_prepends():
    r = build_truncation(GOLDEN, 3)
    s0 = r.operator(("0",))
    # 0 + 10 = 010, in the language: kept (truncation not needed yet)
    assert s0[r.index_of(("1", "0"))] == r.index_of(("0", "1", "0"))
    # 0 + 101 = 0101, full word admissible: truncated back to depth 3
    assert s0[r.index_of(("1", "0", "1"))] == r.index_of(("0", "1", "0"))
    s1 = r.operator(("1",))
    # 1 + 10 = 110 contains the forbidden block: dropped even though
    # the truncation 110[:3] starts with an admissible symbol pair check
    assert s1[r.index_of(("1", "0"))] == -1
    # string form resolves through the alphabet
    assert np.array_equal(r.operator("0"), s0)


def test_preimages_invert_operators():
    r = build_truncation(GOLDEN, 4)
    for word in ((), ("0",), ("1",), ("0", "1")):
        op = r.operator(word)
        indptr, data = r.preimages(word)
        assert indptr[0] == 0 and indptr[-1] == len(data)
        for target in range(r.size):
            got = sorted(data[indptr[target]:indptr[target + 1]])
            want = sorted(np.nonzero(op == target)[0])
            assert got == list(want)


def test_golden_universal_relations_frozen_counts():
    r = build_truncation(GOLDEN, 8)
    assert r.size == 142
    rep = check_universal_relations(r, word_budget=4)
    assert rep.passed
    assert len(rep.checks) == 164
    assert len({(c.left, c.right) for c in rep.checks}) == 82
    assert all(c.interior > 0 for c in rep.checks)
    assert rep.basis_size == 142
    assert rep.failures == ()
    d = rep.to_json_dict()
    assert d["depth"] == 8
    assert "backend" not in d


def test_even_shift_universal_relations_frozen_counts():
    rep = check_universal_relations(build_truncation(EVEN, 8), word_budget=4)
    assert rep.passed
    assert len(rep.checks) == 230
    assert len({(c.left, c.right) for c in rep.checks}) == 115


def test_golden_ck_relations_frozen():
    rep = check_ck_relations(build_truncation(GOLDEN, 8))
    assert rep.passed
    assert [(c.relation, c.left, c.interior) for c in rep.checks] == [
        ("ck-unit", "", 86),
        ("ck-adjacency", "0", 52),
        ("ck-adjacency", "1", 52),
    ]
    assert rep.skipped_symbols == ()


def test_ck_relations_skip_symbols_missing_from_points():
    # symbol "0" has a zero column: it labels no edge, so its operator is
    # empty and both identities involving it are vacuous at every depth
    rep = check_ck_relations(build_truncation(ZEROCOL, 6))
    assert rep.passed
    assert rep.skipped_symbols == ("0",)
    assert [c.left for c in rep.checks if c.relation == "ck-adjacency"] == ["1", "2"]


def test_ck_relations_need_a_matrix():
    with pytest.raises(WrongKind):
        check_ck_relations(build_truncation(EVEN, 4))


def test_ck_relations_refuse_a_malformed_matrix():
    # the validator Presentation.sft uses: booleans are not 0-1 entries
    rep = build_truncation(GOLDEN, 3)
    for matrix in ([[True, True], [True, False]], [[1.0, 1], [1, 0]],
                   [[1, 1], [1, 0.0]], [[1, 1], [1, 2]], [[1, 1]]):
        with pytest.raises(InputFormatError):
            check_ck_relations(rep, matrix=matrix)


def test_sft_composition_holds_on_the_whole_basis():
    r = build_truncation(GOLDEN, 7)
    for u, v in ((("0",), ("1",)), (("1",), ("0",)), (("0", "1"), ("0",))):
        su, sv = r.operator(u), r.operator(v)
        composite = np.where(sv >= 0, su[np.clip(sv, 0, None)], -1)
        assert np.array_equal(composite, r.operator(u + v)), (u, v)


def test_sofic_composition_fails_past_the_margin():
    # For strictly sofic presentations the operators only compose after
    # truncation margins are respected: s_0(s_1(110)) lands on 011, but the
    # one-step operator for 01 is empty there because the full word 01110
    # carries an odd block of 1s.
    r = build_truncation(EVEN, 3)
    s0, s1 = r.operator(("0",)), r.operator(("1",))
    x = r.index_of(("1", "1", "0"))
    via = s1[x]
    assert via >= 0
    assert s0[via] == r.index_of(("0", "1", "1"))
    assert r.operator(("0", "1"))[x] == -1
    # the margin-aware checker is exact and still passes
    assert check_universal_relations(r, word_budget=2).passed


def test_products_stay_partial_isometries_on_the_interior():
    r = build_truncation(GOLDEN, 6)
    triples = [
        (("0",), ("1",), ("0",)),
        (("0", "0"), ("1",), ("1", "0")),
        ((), ("0",), ()),
    ]
    for outer, mid, inner in triples:
        rows, cols, counts = partial_isometry_product(r, outer, mid, inner)
        interior = r.count_upto(6 - max(len(outer), len(inner), 1) - 1)
        inside = cols < interior
        assert set(counts[inside].tolist()) <= {1}
        col_sums = np.bincount(cols[inside], weights=counts[inside])
        assert col_sums.max(initial=0) <= 1


def _dense(rep, word):
    """Explicit 0/1 matrix of ``s_word``: column c has its 1 at s_word(c).

    Floating point lets ``@`` use BLAS; the small counts stay exact.
    """
    op = rep.operator(word)
    m = np.zeros((rep.size, rep.size))
    cols = np.nonzero(op >= 0)[0]
    m[op[cols], cols] = 1
    return m


@pytest.mark.parametrize("presentation", [GOLDEN, EVEN], ids=["golden", "even"])
def test_sparse_product_matches_dense_matrix_product(presentation):
    r = build_truncation(presentation, 8)
    short = r.words[: r.count_upto(2)]
    dense = {w: _dense(r, w) for w in short}
    for outer, mid, inner in itertools.product(short, repeat=3):
        want = dense[outer] @ dense[mid].T @ dense[mid] @ dense[inner].T
        rows, cols, counts = partial_isometry_product(r, outer, mid, inner)
        assert np.all(counts > 0)
        keys = rows * r.size + cols
        assert np.all(np.diff(keys) > 0)  # row-major, no repeats
        got = np.zeros_like(want)
        got[rows, cols] = counts
        assert np.array_equal(got, want), (outer, mid, inner)
    # the S_s^T S_s form the ck-adjacency check uses
    for s in r.graph.alphabet.symbols:
        rows, cols, counts = partial_isometry_product(r, (), (s,), ())
        got = np.zeros((r.size, r.size))
        got[rows, cols] = counts
        assert np.array_equal(got, dense[(s,)].T @ dense[(s,)])


def test_ck_witness_is_the_first_mismatch():
    r = build_truncation(GOLDEN, 9)
    rep = check_ck_relations(r, ((1, 1), (1, 1)))
    adjacency = [c for c in rep.checks if c.relation == "ck-adjacency"]
    assert rep.checks[0].passed
    assert [c.passed for c in adjacency] == [True, False]
    assert adjacency[1].witness == {
        "row_word": "1", "column_word": "1", "got": 0, "expected": 1,
    }
    rep = check_ck_relations(r, ((0, 1), (1, 0)))
    adjacency = [c for c in rep.checks if c.relation == "ck-adjacency"]
    assert rep.checks[0].passed
    assert [c.passed for c in adjacency] == [False, True]
    assert adjacency[0].witness == {
        "row_word": "0", "column_word": "0", "got": 1, "expected": 0,
    }


def test_deep_truncation_checks_stay_sparse():
    # a dense product here would be 17 709^2 int64 entries, about 2.5 GB
    r = build_truncation(GOLDEN, 18)
    assert r.size == 17_709
    assert check_universal_relations(r, word_budget=2).passed
    assert check_ck_relations(r).passed


@pytest.mark.parametrize("batch", [1, 1 << 40], ids=["one-column", "unbounded"])
def test_reports_do_not_depend_on_the_batch_size(monkeypatch, batch):
    # a batch of one column holds one pair (or symbol) each; 2^40 columns
    # hold every pair of a report in one batch
    three = Presentation.sft(("a", "b", "c"), ((0, 0, 1), (1, 0, 1), (1, 1, 0)))
    cases = [(GOLDEN, 10), (EVEN, 12), (three, 9)]

    def reports():
        out = []
        for p, depth in cases:
            r = build_truncation(p, depth)
            out.append(check_universal_relations(r).to_json_dict())
            if p.kind == "sft":
                out.append(check_ck_relations(r).to_json_dict())
        return out

    want = reports()
    monkeypatch.setattr(shiftca.repcheck, "BATCH_COLUMNS", batch)
    assert reports() == want


def test_relation_budget_stops_before_any_operator():
    # all-ones upper-triangular n = 30: 635 376 pairs at word budget 4 on a
    # basis of 5 456 words
    n = 30
    upper = Presentation.sft(
        tuple(f"s{i}" for i in range(n)),
        [[int(i <= j) for j in range(n)] for i in range(n)],
    )
    r = build_truncation(upper, 3)
    assert r.size == 5456
    with pytest.raises(RelationBudgetExceeded) as exc:
        check_universal_relations(r, word_budget=4)
    assert exc.value.exit_code == 2
    assert r._ops == {}
    assert str(exc.value) == (
        f"word budget 4 gives more than {RELATION_CAP // 5456} word pairs on a "
        f"basis of 5456 words (relation checks cap pairs x basis words at "
        f"{RELATION_CAP})"
    )
    # the full 6-shift at depth 4 fits: 7 465 pairs x 1 555 words
    full6 = Presentation.sft(tuple("abcdef"), [[1] * 6] * 6)
    r = build_truncation(full6, 4)
    assert r.size == 1555
    shiftca.repcheck._pair_budget_check(r, 4)


def test_relation_budget_counts_pairs_beyond_the_depth(monkeypatch):
    # word budget 4 > depth 2: the pool reaches past the basis; golden mean
    # words of length 0..4 number 1, 2, 3, 5, 8, so 82 pairs on 6 words
    r = build_truncation(GOLDEN, 2)
    monkeypatch.setattr(shiftca.repcheck, "RELATION_CAP", 82 * 6)
    assert len(check_universal_relations(r, word_budget=4).checks) == 164
    monkeypatch.setattr(shiftca.repcheck, "RELATION_CAP", 82 * 6 - 1)
    with pytest.raises(RelationBudgetExceeded):
        check_universal_relations(r, word_budget=4)


def test_inadmissible_words_share_one_zero_operator():
    r = build_truncation(GOLDEN, 4)
    zero = r.operator(("1", "1"))
    assert r.operator(("0", "1", "1")) is zero
    assert np.all(zero == -1) and len(zero) == r.size
    assert not zero.flags.writeable
    assert build_truncation(GOLDEN, 4).operator(("1", "1")) is not zero


def test_cached_operator_and_preimages_parse_nothing(monkeypatch):
    r = build_truncation(GOLDEN, 4)
    parsed = []
    real = type(r)._parse

    def counting(self, word):
        parsed.append(word)
        return real(self, word)

    monkeypatch.setattr(type(r), "_parse", counting)
    r.preimages(("0", "1"))  # one parse, although the operator is built too
    assert parsed == [("0", "1")]
    r.operator(("0", "1"))
    r.preimages(("0", "1"))
    assert parsed == [("0", "1")]


def test_truncation_expands_only_the_states_it_reads():
    # "16th symbol from the end is 1": 0 loops on both symbols, 0 -1-> 1,
    # i -> i + 1 on both symbols and 16 -> 0 on both; the full subset
    # automaton has 65 537 states
    k = 16
    edges = [(0, 0, "0"), (0, 0, "1"), (0, 1, "1")]
    edges += [(i, i + 1, s) for i in range(1, k) for s in "01"]
    edges += [(k, 0, s) for s in "01"]
    r = build_truncation(Presentation.labeled_graph(("0", "1"), k + 1, edges), 6)
    assert check_universal_relations(r, word_budget=2).passed
    assert len(r.automaton.sets) < 1000
