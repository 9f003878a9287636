"""The batched relation checks of ``repcheck`` against the code they
replaced.

``build_truncation`` enumerates the basis layer by layer on the subset
automaton, ``TruncatedRep.operator`` fills each layer from its parents, and
the relation checks run in batches of word pairs.  The per-word walks and
the per-pair checks below are the earlier code, kept verbatim as
references:

* every operator of a word of length at most 3, and the per-pair projection
  expectation, must match the per-word walks on seeded random SFTs,
  labeled graphs and forbidden-word sets at depths 1-8;
* the whole report of ``check_universal_relations`` and
  ``check_ck_relations`` must equal the per-pair checks', witnesses
  included, on a seeded corpus at depths 1-9 and word budgets 0-4, also
  after one entry of one cached operator is overwritten;
* column-bounded products must equal the full product restricted to those
  columns.
"""

import random
from itertools import product
from typing import Optional, Union

import numpy as np
import pytest

from shiftca import repcheck
from shiftca.errors import DepthTooLarge, EmptyShift, ZeroRow
from shiftca.pastsets import DEAD
from shiftca.presentations import (
    Presentation,
    Word,
    _end_set,
    language_upto,
    to_labeled_graph,
    zero_one_rows,
)
from shiftca.repcheck import (
    RelationCheck,
    RelationReport,
    TruncatedRep,
    build_truncation,
    check_ck_relations,
    check_universal_relations,
)

# keeps the per-word references fast; the depth loop stops at this basis
BASIS_CAP = 400


def reference_operator(rep, w):
    """``s_w`` by walking every basis word from its prefix's end set."""
    g = rep.graph
    index = {word: i for i, word in enumerate(rep.words)}
    start = g.full_mask
    for sym in w:
        start = g.post(start, g.alphabet.index(sym))
        if not start:
            break
    arr = np.full(rep.size, -1, dtype=np.int64)
    if start:
        reach = [0] * rep.size
        reach[0] = start
        arr[0] = index[w[: rep.depth]]
        for i in range(1, rep.size):
            bw = rep.words[i]
            prev = reach[index[bw[:-1]]]
            if not prev:
                continue
            s = g.post(prev, g.alphabet.index(bw[-1]))
            if s:
                reach[i] = s
                arr[i] = index[(w + bw)[: rep.depth]]
    return arr


def reference_expected(rep, u, v):
    """Projection diagonal by one end-set walk per interior word."""
    if v:
        max_len = rep.depth - len(u) - len(v)
    else:
        max_len = rep.depth - len(u) - 1
    dim = rep.count_upto(max_len)
    expected = np.zeros(dim, dtype=np.int64)
    for col in range(dim):
        w = rep.words[col]
        if w[: len(v)] != v:
            continue
        if _end_set(rep.graph, u + w[len(v) :]):
            expected[col] = 1
    return expected


# -- the per-pair checks, verbatim ---------------------------------------------


def partial_isometry_product(
    rep: TruncatedRep,
    outer: Union[str, Word],
    mid: Union[str, Word],
    inner: Union[str, Word],
    hi: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of ``s_outer s_mid^T s_mid s_inner^T`` as ``(rows, cols, counts)``.

    Entry ``(x, c)`` counts the pairs ``(y, z)`` with ``s_outer(y) = x``,
    ``s_mid(y) = s_mid(z)`` and ``s_inner(z) = c``; entries are row-major.
    Only the columns ``c < hi`` are computed (all of them by default).
    """
    size = rep.size
    hi = size if hi is None else hi
    mid_indptr, mid_data = rep.preimages(mid)
    inner_indptr, z = rep.preimages(inner)
    cols = np.repeat(np.arange(hi), np.diff(inner_indptr[: hi + 1]))
    m = rep.operator(mid)[z[: inner_indptr[hi]]]
    cols, m = cols[m >= 0], m[m >= 0]
    # expand each m into its preimage run mid_data[mid_indptr[m]:mid_indptr[m + 1]]
    lens = mid_indptr[m + 1] - mid_indptr[m]
    run_start = np.repeat(mid_indptr[m] - (np.cumsum(lens) - lens), lens)
    x = rep.operator(outer)[mid_data[run_start + np.arange(int(lens.sum()))]]
    cols = np.repeat(cols, lens)
    keys, counts = np.unique(x[x >= 0] * size + cols[x >= 0], return_counts=True)
    return keys // size, keys % size, counts


def _diagonal_witness(
    rep: TruncatedRep, product, expected: np.ndarray, lo: int, hi: int
) -> Optional[dict]:
    """First mismatch, in (row, col) order, of a product against a diagonal.

    Compares columns ``lo <= c < hi``, whose wanted diagonal entry is
    ``expected[c - lo]``; None when they agree.
    """
    keep = (product[1] >= lo) & (product[1] < hi)
    rows, cols, counts = (a[keep] for a in product)
    on = rows == cols
    got = np.zeros(len(expected), dtype=np.int64)
    got[cols[on] - lo] = counts[on]
    bad = [(rows[k], cols[k], counts[k], 0) for k in np.nonzero(~on)[0][:1]]
    for k in np.nonzero(got != expected)[0][:1]:
        bad.append((k + lo, k + lo, got[k], expected[k]))
    if not bad:
        return None
    r, c, g, e = (int(x) for x in min(bad))
    return {
        "row_word": rep.render(rep.words[r]),
        "column_word": rep.render(rep.words[c]),
        "got": g,
        "expected": e,
    }


def _composition_check(rep: TruncatedRep, u: Word, v: Word) -> RelationCheck:
    dim = rep.count_upto(rep.depth - len(u) - len(v))
    su = rep.operator(u)
    sv = rep.operator(v)[:dim]
    direct = rep.operator(u + v)[:dim]
    composite = np.where(sv >= 0, su[np.clip(sv, 0, None)], -1)
    passed = bool(np.array_equal(composite, direct))
    witness = None
    if not passed:
        i = int(np.nonzero(composite != direct)[0][0])

        def _img(x: int) -> Optional[str]:
            return rep.render(rep.words[x]) if x >= 0 else None

        witness = {
            "basis_word": rep.render(rep.words[i]),
            "composite": _img(int(composite[i])),
            "direct": _img(int(direct[i])),
        }
    return RelationCheck(
        "composition", rep.render(u), rep.render(v), dim, passed, witness
    )


def _projection_expected(rep: TruncatedRep, u: Word, v: Word) -> np.ndarray:
    """Wanted diagonal of ``s_v s_u^T s_u s_v^T`` on its interior columns.

    Entry w is 1 exactly when ``w = v w'`` and ``u w'`` is admissible: the
    state of ``u w'`` is walked from post*(V, u) down v's subtree of the
    trie, one layer at a time.
    """
    max_len = rep.depth - len(u) - max(len(v), 1)
    expected = np.zeros(rep.count_upto(max_len), dtype=np.int64)
    if len(v) > max_len:
        return expected
    lo = rep.index_of(v)
    hi = lo + 1
    states = np.array([rep.automaton.state_of(u)])
    expected[lo] = states[0] != DEAD
    for _ in range(len(v), max_len):
        # v's descendants one layer down: the children of words lo..hi-1,
        # contiguous because ``parent`` is nondecreasing
        prev = lo
        lo, hi = np.searchsorted(rep.parent, (lo, hi)).tolist()
        states = rep.automaton.step(states[rep.parent[lo:hi] - prev], rep.last[lo:hi])
        expected[lo:hi] = states != DEAD
    return expected


def _projection_check(rep: TruncatedRep, u: Word, v: Word) -> RelationCheck:
    expected = _projection_expected(rep, u, v)
    dim = len(expected)
    prod = partial_isometry_product(rep, v, u, v, dim)
    witness = _diagonal_witness(rep, prod, expected, 0, dim)
    return RelationCheck(
        "projection", rep.render(u), rep.render(v), dim, witness is None, witness
    )


def reference_universal_relations(rep, word_budget):
    """``check_universal_relations`` as one composition and one projection
    check per word pair."""
    pool = language_upto(rep.graph, word_budget)  # shortlex, so by length
    checks: list[RelationCheck] = []
    for u in pool:
        for v in pool:
            if len(u) + len(v) > word_budget:
                break
            checks.append(_composition_check(rep, u, v))
            checks.append(_projection_check(rep, u, v))
    return RelationReport(
        depth=rep.depth,
        basis_size=rep.size,
        checks=tuple(checks),
    )


def reference_ck_relations(rep, matrix):
    """``check_ck_relations`` with one product and one diagonal comparison
    per occurring symbol."""
    syms = rep.graph.alphabet.symbols
    mat = zero_one_rows(matrix, len(syms))
    n = rep.size
    ops = [rep.operator((s,)) for s in syms]
    occurring = [i for i, op in enumerate(ops) if bool(np.any(op >= 0))]
    skipped = tuple(syms[i] for i in range(len(syms)) if i not in occurring)
    # each S_j S_j^T is diagonal outright (S_j is a partial map), with
    # entry |preimages of w under s_j| at w
    preim_counts = [np.bincount(op[op >= 0], minlength=n) for op in ops]
    zero = np.zeros(n, dtype=np.int64)

    checks: list[RelationCheck] = []

    unit_hi = rep.count_upto(rep.depth - 1)
    diag = sum(preim_counts, zero)
    unit_block = diag[1:unit_hi]
    passed = bool(np.all(unit_block == 1))
    witness = None
    if not passed:
        i = 1 + int(np.nonzero(unit_block != 1)[0][0])
        witness = {"word": rep.render(rep.words[i]), "count": int(diag[i])}
    checks.append(
        RelationCheck("ck-unit", "", "", max(unit_hi - 1, 0), passed, witness)
    )

    adj_hi = rep.count_upto(rep.depth - 2)
    for i in occurring:
        # S_i^T S_i, compared with sum_j A(i,j) S_j S_j^T off the empty word
        rhs_diag = sum((c for c, a in zip(preim_counts, mat[i]) if a), zero)
        prod = partial_isometry_product(rep, (), (syms[i],), (), adj_hi)
        witness = _diagonal_witness(rep, prod, rhs_diag[1:adj_hi], 1, adj_hi)
        checks.append(
            RelationCheck(
                "ck-adjacency",
                syms[i],
                "",
                max(adj_hi - 1, 0),
                witness is None,
                witness,
            )
        )

    return RelationReport(
        depth=rep.depth,
        basis_size=rep.size,
        checks=tuple(checks),
        skipped_symbols=skipped,
    )


# -- seeded corpus --------------------------------------------------------------


def _random_sft(rng):
    n = rng.randint(2, 5)
    while True:
        m = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in m):
            return Presentation.sft(tuple("abcde"[:n]), m)


def _random_graph(rng):
    n = rng.randint(2, 4)
    symbols = "xyz"[: rng.randint(2, 3)]
    while True:
        edges = [
            (s, t, a)
            for s in range(n)
            for t in range(n)
            for a in symbols
            if rng.random() < 0.3
        ]
        if all(any(e[0] == v for e in edges) for v in range(n)):
            return Presentation.labeled_graph(tuple(symbols), n, edges)


def _random_forbidden(rng):
    symbols = "01" if rng.random() < 0.7 else "012"
    while True:
        words = [
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        p = Presentation.forbidden_words(tuple(symbols), words)
        try:
            to_labeled_graph(p)
        except EmptyShift:
            continue
        return p


def _truncations(p):
    for depth in range(1, 9):
        try:
            yield build_truncation(p, depth, basis_cap=BASIS_CAP)
        except DepthTooLarge:
            return


CASES = [
    (kind, seed)
    for kind in ("sft", "graph", "forbidden")
    for seed in range(8)
]
MAKERS = {"sft": _random_sft, "graph": _random_graph, "forbidden": _random_forbidden}


@pytest.mark.parametrize("kind,seed", CASES, ids=[f"{k}{s}" for k, s in CASES])
def test_trie_recurrences_match_per_word_walks(kind, seed):
    p = MAKERS[kind](random.Random(1000 * seed + len(kind)))
    for rep in _truncations(p):
        # the layered enumeration lists the language in shortlex order
        assert rep.words == tuple(language_upto(rep.graph, rep.depth))
        assert all(rep.index_of(w) == i for i, w in enumerate(rep.words))
        short = rep.words[: rep.count_upto(3)]
        # inadmissible words too: their operator is zero
        symbols = rep.graph.alphabet.symbols
        for w in list(short) + [w for w in product(symbols, repeat=2)]:
            assert np.array_equal(rep.operator(w), reference_operator(rep, w)), w
        for u, v in product(short, repeat=2):
            if len(u) + len(v) <= 3:
                got = _projection_expected(rep, u, v)
                assert np.array_equal(got, reference_expected(rep, u, v)), (u, v)


@pytest.mark.parametrize("kind,seed", CASES[::2], ids=[f"{k}{s}" for k, s in CASES[::2]])
def test_column_bounded_product_is_the_full_product_restricted(kind, seed):
    p = MAKERS[kind](random.Random(1000 * seed + len(kind)))
    for rep in _truncations(p):
        short = rep.words[: rep.count_upto(1)]
        bounds = sorted({0, 1, rep.size, *(rep.count_upto(k) for k in range(rep.depth))})
        for triple in product(short, repeat=3):
            rows, cols, counts = repcheck.partial_isometry_product(rep, *triple)
            # the one-triple batch against the per-pair product it replaced
            want = partial_isometry_product(rep, *triple)
            for a, b in zip((rows, cols, counts), want):
                assert np.array_equal(a, b), triple
            for hi in bounds:
                got = repcheck.partial_isometry_product(rep, *triple, hi)
                keep = cols < hi
                for a, b in zip(got, (rows[keep], cols[keep], counts[keep])):
                    assert np.array_equal(a, b), (triple, hi)


# -- batched checks against the per-pair checks ----------------------------------


def _corpus_sft(rng):
    n = rng.randint(1, 4)
    m = [[int(rng.random() < 0.6) for _ in range(n)] for _ in range(n)]
    return Presentation.sft(tuple("abcd"[:n]), m)


def _corpus_graph(rng):
    n = rng.randint(1, 5)
    symbols = "xyz"[: rng.randint(1, 3)]
    edges = [
        (s, t, a)
        for s in range(n)
        for t in range(n)
        for a in symbols
        if rng.random() < 0.35
    ]
    return Presentation.labeled_graph(tuple(symbols), n, edges)


CORPUS_MAKERS = {
    "sft": _corpus_sft,
    "graph": _corpus_graph,
    "forbidden": _random_forbidden,
}
CORPUS = [(kind, seed) for kind in CORPUS_MAKERS for seed in range(12)]
CORPUS_IDS = [f"{k}{s}" for k, s in CORPUS]


def _corpus_truncations(kind, seed):
    """``(rng, presentation, truncation, word budget)`` at depths 1-9; the
    word budget cycles through 0-4 with the depth and the seed."""
    rng = random.Random(7919 * seed + len(kind))
    while True:
        try:
            p = CORPUS_MAKERS[kind](rng)
            to_labeled_graph(p)
        except (ZeroRow, EmptyShift):
            continue  # no shift space: draw again
        break
    for depth in range(1, 10):
        try:
            rep = build_truncation(p, depth, basis_cap=BASIS_CAP)
        except DepthTooLarge:
            return
        yield rng, p, rep, (depth + seed) % 5


def _assert_reports_match(rng, p, rep, word_budget):
    """Both universal reports, and the ck reports for a random 0-1 matrix
    and, on an SFT, for its own matrix; returns how many checks failed."""
    got = check_universal_relations(rep, word_budget).to_json_dict()
    assert got == reference_universal_relations(rep, word_budget).to_json_dict()
    n = len(rep.graph.alphabet)
    matrices = [[[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]]
    if p.kind == "sft":
        matrices.append(p.matrix)
    failed = sum(not c["passed"] for c in got["checks"])
    for m in matrices:
        ck = check_ck_relations(rep, m).to_json_dict()
        assert ck == reference_ck_relations(rep, m).to_json_dict(), m
        failed += sum(not c["passed"] for c in ck["checks"])
    return failed


@pytest.mark.parametrize("kind,seed", CORPUS, ids=CORPUS_IDS)
def test_batched_checks_match_the_per_pair_checks(kind, seed):
    for rng, p, rep, word_budget in _corpus_truncations(kind, seed):
        _assert_reports_match(rng, p, rep, word_budget)


@pytest.mark.parametrize("kind,seed", CORPUS, ids=CORPUS_IDS)
def test_batched_checks_match_on_a_corrupted_operator(kind, seed):
    # one entry of one cached operator overwritten, the same cache read by
    # both sides: failing checks and their witnesses must agree too
    for rng, p, rep, word_budget in _corpus_truncations(kind, seed):
        word = rng.choice(language_upto(rep.graph, max(word_budget, 1)))
        if rng.random() < 0.5:
            rep.preimages(word)  # stale preimage lists as well
        arr = rep.operator(word).copy()
        arr[rng.randrange(rep.size)] = rng.randrange(-1, rep.size)
        arr.setflags(write=False)
        rep._ops[word] = arr
        _assert_reports_match(rng, p, rep, word_budget)
