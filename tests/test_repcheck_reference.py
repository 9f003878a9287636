"""The trie recurrences of ``repcheck`` against the per-word walks they
replaced.

``build_truncation`` enumerates the basis layer by layer on the subset
automaton, ``TruncatedRep.operator`` fills each layer from its parents, and
the projection expectation walks v's subtree.  The walks below are the
earlier per-word code, kept verbatim as references: every operator of a
word of length at most 3 and every projection expectation must match them
on seeded random SFTs, labeled graphs and forbidden-word sets at depths
1-8.  Column-bounded products must equal the full product restricted to
those columns.
"""

import random
from itertools import product

import numpy as np
import pytest

from shiftca.errors import DepthTooLarge, EmptyShift
from shiftca.presentations import (
    Presentation,
    _end_set,
    language_upto,
    to_labeled_graph,
)
from shiftca.repcheck import (
    _projection_expected,
    build_truncation,
    partial_isometry_product,
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
            rows, cols, counts = partial_isometry_product(rep, *triple)
            for hi in bounds:
                got = partial_isometry_product(rep, *triple, hi)
                keep = cols < hi
                for a, b in zip(got, (rows[keep], cols[keep], counts[keep])):
                    assert np.array_equal(a, b), (triple, hi)
