"""Refinement tower: frozen level data, filtration maps, commuting squares."""

import importlib
import pkgutil
import random
from functools import cmp_to_key
from itertools import islice, product

import pytest

import shiftca
from shiftca.conditions import _class_distances
from shiftca.errors import EmptyShift, IllDefinedTransition, InputFormatError
from shiftca.intlinalg import AbelianGroup
from shiftca.invariants import k_groups
from shiftca.pastsets import SubsetAutomaton, point_past_set
from shiftca.presentations import Presentation, past_layers
from shiftca.tower import (
    build_tower,
    filtration_M,
    filtration_map_A,
    filtration_map_I,
    matrix_A,
    matrix_B,
    matrix_I,
    projection_delta,
    refine,
    stable_permutation,
)

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)
FULL2 = Presentation.sft(("a", "b"), ((1, 1), (1, 1)))
POINT = Presentation.sft(("0",), ((1,),))


def partition_at(tw, l):
    return frozenset(frozenset(c.tsets) for c in tw.level(l).classes)


def test_golden_frozen_tower():
    tw = build_tower(GOLDEN)
    assert tw.stabilized_at == 1
    assert [tw.m(l) for l in range(3)] == [1, 2, 2]
    assert matrix_I(tw, 1).to_lists() == [[0, 1], [1, 0]]
    assert matrix_A(tw, 1).to_lists() == [[1, 1], [0, 1]]
    assert matrix_B(tw, 1).to_lists() == [[-1, 0], [1, -1]]
    assert tw.summary() == {
        "tsets": 2,
        "monoid": 5,
        "m": [1, 2, 2],
        "stabilized_at": 1,
    }


def test_even_shift_frozen_tower():
    tw = build_tower(EVEN)
    assert tw.stabilized_at == 2
    assert [tw.m(l) for l in range(4)] == [1, 2, 3, 3]
    assert matrix_I(tw, 2).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_A(tw, 2).to_lists() == [[1, 1, 0], [0, 1, 1], [0, 1, 0]]
    assert matrix_B(tw, 2).to_lists() == [[0, -1, 0], [0, 0, -1], [0, -1, 1]]


def test_full_shift_and_single_point_towers():
    tw = build_tower(FULL2)
    assert tw.stabilized_at == 0
    assert matrix_B(tw, 1).to_lists() == [[-1]]
    tw = build_tower(POINT)
    assert tw.stabilized_at == 0
    assert matrix_B(tw, 1).to_lists() == [[0]]


def test_per_symbol_transition_matrices_sum():
    tw = build_tower(GOLDEN)
    a0, a1 = matrix_A(tw, 1, 0).rows, matrix_A(tw, 1, 1).rows
    total = [[x + y for x, y in zip(r0, r1)] for r0, r1 in zip(a0, a1)]
    assert total == matrix_A(tw, 1).to_lists()


def test_refinement_rows_are_unit_vectors():
    for pres in (GOLDEN, EVEN, FULL2, POINT):
        tw = build_tower(pres)
        tw.ensure_level(tw.stabilized_at + 3)
        for l in range(tw.top_level):
            fine = tw.level(l + 1)
            coarse = tw.level(l)
            for row in matrix_I(tw, l).rows:
                assert sum(row) == 1
                assert set(row) <= {0, 1}
            for c in fine.classes:
                parent = coarse.classes[fine.parent[c.index]]
                assert set(c.tsets) <= set(parent.tsets)


def test_partition_stabilizes_permanently():
    for pres in (GOLDEN, EVEN, FULL2, POINT):
        tw = build_tower(pres)
        l0 = tw.stabilized_at
        tw.ensure_level(l0 + 3)
        base = partition_at(tw, l0)
        assert partition_at(tw, l0 + 1) == base
        assert partition_at(tw, l0 + 2) == base
        stable_permutation(tw, l0)  # square, one 1 per row and column


def _tiny_graphs():
    """Every labeled graph with at most 2 vertices and 2 symbols."""
    for nv, ns in ((1, 1), (1, 2), (2, 1), (2, 2)):
        syms = "ab"[:ns]
        slots = list(product(range(nv), range(nv), syms))
        for bits in range(1, 1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if bits >> i & 1]
            yield Presentation.labeled_graph(tuple(syms), nv, edges)


def _small_graphs():
    """The tiny graphs, then 150 seeded random graphs with at most 5
    vertices and 3 symbols."""
    yield from _tiny_graphs()
    rng = random.Random(5150)
    for _ in range(150):
        nv = rng.randint(1, 5)
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice("abc"))
            for _ in range(rng.randint(1, 3 * nv))
        }
        yield Presentation.labeled_graph(("a", "b", "c"), nv, sorted(edges))


def test_stabilized_at_is_the_first_repeated_partition():
    towers = 0
    for pres in _small_graphs():
        try:
            tw = build_tower(pres)
        except EmptyShift:
            continue
        first = next(
            l for l in range(tw.top_level)
            if partition_at(tw, l + 1) == partition_at(tw, l)
        )
        assert tw.stabilized_at == first, pres
        towers += 1
    assert towers > 250


class _PastLister:
    """Reference past-word lists, by the recursion on the last symbol

        P_l(t) = {ε} ∪ { w·a : Pre_a(t) != 0, w ∈ P_{l-1}(Pre_a(t)) },

    memoized and shortlex-sorted.  It reads only ``graph.pre``, so it
    shares nothing with the subset automaton."""

    def __init__(self, g):
        self.graph = g
        self._memo = {}

    def words_of_set(self, tset, level):
        if level == 0:
            return ((),)
        key = (tset, level)
        if key not in self._memo:
            alph = self.graph.alphabet
            words = [()]
            for a, sym in enumerate(alph.symbols):
                p = self.graph.pre(tset, a)
                if p:
                    words.extend(w + (sym,) for w in self.words_of_set(p, level - 1))
            self._memo[key] = tuple(sorted(words, key=alph.sort_key))
        return self._memo[key]


def _reference_order(tw, l, lister):
    """Level l's classes (sorted members) in the order of the word-list sort
    key: shortlex-sorted past words compared lexicographically, then sorted
    members."""
    alpha = tw.graph.alphabet

    def key(members):
        words = lister.words_of_set(members[0], l)
        return (tuple(alpha.sort_key(w) for w in words), sorted(members))

    return sorted((sorted(c.tsets) for c in tw.level(l).classes), key=key)


def _order_corpus():
    """The tiny graphs, 300 seeded random graphs with at most 6 vertices and
    3 symbols, 0^3..0^10 and the mod-16/20/24 gap graphs."""
    yield from _tiny_graphs()
    rng = random.Random(8080)
    for _ in range(300):
        nv, syms = rng.randint(1, 6), "abc"[: rng.randint(1, 3)]
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice(syms))
            for _ in range(rng.randint(1, 3 * nv))
        }
        yield Presentation.labeled_graph(tuple(syms), nv, sorted(edges))
    for k in range(3, 11):
        yield Presentation.forbidden_words(("0", "1"), [("0",) * k])
    for k in (16, 20, 24):
        yield _gap(k)


def _gap(k):
    """The mod-k gap shift: runs of 1s between 0s have lengths divisible by
    k.  Its tower stabilizes at level k - 1."""
    edges = [(0, 0, "0")] + [(i, (i + 1) % k, "1") for i in range(k)]
    return Presentation.labeled_graph(("0", "1"), k, edges)


def test_classes_sorted_by_past_encoding():
    levels = 0
    for pres in _order_corpus():
        try:
            tw = build_tower(pres, max_level=12)
        except EmptyShift:
            continue
        prev = None
        lister = _PastLister(tw.graph)
        for l in range(tw.top_level + 1):
            ref = _reference_order(tw, l, lister)
            lvl = tw.level(l)
            assert [list(c.tsets) for c in lvl.classes] == ref, (pres, l)
            if prev is not None:
                owner = {t: j for j, members in enumerate(prev) for t in members}
                assert lvl.parent == tuple(owner[m[0]] for m in ref), (pres, l)
            prev = ref
            levels += 1
    assert levels > 1400


def _uncached_order(tw, l):
    """Level l's blocks (sorted members) from refine, in refine's order,
    sorted by the comparator that caches nothing: one separating_word and
    one has_later_word call per comparison, flags from the past counts."""
    if l == 0:
        blocks = [list(tw.tsets)]
    else:
        below = {t: c.index for c in tw.level(l - 1).classes for t in c.tsets}
        blocks = refine(tw.tsets, below, tw.pre)
    auto = tw.automaton

    def flags(t):
        return [tw.past_counts(k)[t] > 0 for k in range(l + 1)]

    def compare(x, y):
        u, x_holds = auto.separating_word(x[0], y[0], l)
        other = y[0] if x_holds else x[0]
        goes_on = auto.has_later_word(other, u) or any(flags(other)[len(u) + 1:])
        return -1 if x_holds == goes_on else 1

    return sorted((sorted(b) for b in blocks), key=cmp_to_key(compare))


def _saturation_distances(tw, lvl):
    """Per realized T-set t: the least |u| with class(Pre_u(t)) = c, per
    class c, by saturation over the predecessor sets of t itself, one
    search per T-set: the reference for the class graph's rows."""
    out = {}
    for t in tw.tsets:
        dist = {t: 0}
        frontier = [t]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for s in frontier:
                for p in tw.pre[s]:
                    if p and p not in dist:
                        dist[p] = d
                        nxt.append(p)
            frontier = nxt
        best = {}
        for s, ds in dist.items():
            c = tw.class_of(lvl, s)
            if c not in best or ds < best[c]:
                best[c] = ds
        out[t] = best
    return out


def test_class_distances_match_per_tset_saturation():
    towers = 0
    for pres in [*_order_corpus(), _gap(32), _gap(48)]:
        try:
            tw = build_tower(pres)
        except EmptyShift:
            continue
        for lvl in (tw.stabilized_at, tw.top_level):
            rows = _class_distances(tw, lvl)
            for t, want in _saturation_distances(tw, lvl).items():
                assert rows[tw.class_of(lvl, t)] == want, (pres, lvl, t)
        towers += 1
    assert towers > 250


def test_cached_order_matches_uncached_comparator():
    tops, levels = [], 0
    deep = [_gap(32), _gap(48), Presentation.forbidden_words(("0", "1"), [("0",) * 16])]
    for pres in [*_order_corpus(), *deep]:
        try:
            tw = build_tower(pres)
        except EmptyShift:
            continue
        assert tw.stabilized_at is not None and tw.top_level == tw.stabilized_at + 1
        for l in range(tw.top_level + 1):
            classes = tw.level(l).classes
            assert [list(c.tsets) for c in classes] == _uncached_order(tw, l), (pres, l)
            for c in classes:
                want = tuple(tw.past_counts(k)[c.tsets[0]] > 0 for k in range(l + 1))
                assert c.has_exact_past == want
            if l > 0:
                up = tuple(tw.class_of(l - 1, c.tsets[0]) for c in classes)
                assert tw.level(l).parent == up
            levels += 1
        tops.append(tw.top_level)
    assert len(tops) > 250 and levels > 1400
    assert tops[-3:] == [32, 48, 16]


def test_separating_word_found_once_per_pair(monkeypatch):
    asked = []
    separating_word = SubsetAutomaton.separating_word

    def counted(self, t1, t2, level):
        asked.append(frozenset((t1, t2)))
        return separating_word(self, t1, t2, level)

    monkeypatch.setattr(SubsetAutomaton, "separating_word", counted)
    tw = build_tower(_gap(24))
    assert (len(tw.tsets), tw.stabilized_at) == (25, 23)
    assert asked and len(asked) == len(set(asked))


def test_order_has_no_word_lists(monkeypatch):
    def refuse(*args):
        raise AssertionError("word list built")

    # past_layers is the only past-word lister left
    modules = [importlib.import_module(f"shiftca.{m.name}")
               for m in pkgutil.iter_modules(shiftca.__path__)]
    patched = [m for m in modules if hasattr(m, "past_layers")]
    assert shiftca.presentations in patched
    for module in patched:
        monkeypatch.setattr(module, "past_layers", refuse)
    tw = build_tower(Presentation.forbidden_words(("0", "1"), [("0",) * 24]))
    assert [lvl.m for lvl in tw.levels] == list(range(1, 25)) + [24]
    assert tw.stabilized_at == 23
    assert k_groups(tw).k0 == AbelianGroup(0, (23,))


def test_automaton_counts_and_walks_match_word_lists():
    for pres in _small_graphs():
        try:
            tw = build_tower(pres)
        except EmptyShift:
            continue
        lister = _PastLister(tw.graph)
        for t in tw.tsets:
            for l in range(4):
                words = lister.words_of_set(t, l)
                assert tw.count_words(t, l) == len(words)
                assert point_past_set(tw.graph, t, l) == words


def test_past_layers_have_the_past_counts():
    # the lister's layer k has N_k(t) words, counted on the predecessor table
    checked = 0
    for pres in [*_small_graphs(), _gap(7), _gap(12)]:
        try:
            tw = build_tower(pres)
        except EmptyShift:
            continue
        for t in tw.tsets:
            lengths = [len(layer) for layer in islice(past_layers(tw.graph, t), 9)]
            assert lengths == [tw.past_counts(k)[t] for k in range(9)], (pres, t)
            checked += 1
    assert checked > 400


def test_negative_word_lengths_raise_input_format_error():
    tw = build_tower(GOLDEN)
    assert tw.past_counts(3) == {1: 3, 3: 5}
    with pytest.raises(InputFormatError):
        tw.past_counts(-1)
    with pytest.raises(InputFormatError):
        tw.count_words(3, -2)
    with pytest.raises(InputFormatError):
        tw.ensure_level(-1)
    assert tw.count_words(3, 0) == 1


def test_filtration_bounds_checked():
    tw = build_tower(GOLDEN)
    with pytest.raises(InputFormatError):
        filtration_M(tw, 1, 2)
    with pytest.raises(InputFormatError):
        filtration_M(tw, 1, -1)


def test_golden_filtration_sets():
    tw = build_tower(GOLDEN)
    assert filtration_M(tw, 1, 0) == (0, 1)
    assert filtration_M(tw, 1, 1) == (0, 1)


def test_length_filtration_can_exclude_classes():
    # v0 --a--> v1 --b--> v1 (loop): the ray a b b b... has an empty strict
    # past, so its class never gains a past word of length exactly 1.
    pres = Presentation.labeled_graph(("a", "b"), 2, [(0, 1, "a"), (1, 1, "b")])
    tw = build_tower(pres)
    assert tw.stabilized_at == 1
    assert [tw.m(l) for l in range(3)] == [1, 2, 2]
    assert filtration_M(tw, 1, 0) == (0, 1)
    assert filtration_M(tw, 1, 1) == (1,)
    excluded = tw.level(1).classes[0]
    assert point_past_set(tw.graph, excluded.tsets[0], 1) == ((),)
    assert excluded.has_exact_past == (True, False)
    kept = tw.level(1).classes[1]
    assert point_past_set(tw.graph, kept.tsets[0], 1) == ((), ("a",), ("b",))


def test_stable_permutation_rejects_unstabilized_level():
    tw = build_tower(EVEN)
    with pytest.raises(IllDefinedTransition):
        stable_permutation(tw, 0)  # 2x1 refinement, not a permutation


def test_budget_capped_tower_reports_no_stabilization():
    tw = build_tower(EVEN, max_level=1)
    assert tw.stabilized_at is None
    assert tw.top_level == 1


def test_m_sequence_is_presentation_independent():
    recoded = Presentation.forbidden_words(("0", "1"), [("1", "1")])
    t1 = build_tower(GOLDEN)
    t2 = build_tower(recoded)
    assert t1.stabilized_at == t2.stabilized_at == 1
    assert [t1.m(l) for l in range(3)] == [t2.m(l) for l in range(3)]
    assert matrix_B(t1, 1).to_lists() == matrix_B(t2, 1).to_lists()
    full = Presentation.forbidden_words(("a", "b"), [])
    t3 = build_tower(full)
    assert t3.stabilized_at == 0
    assert matrix_B(t3, 1).to_lists() == [[-1]]


def test_transition_square_commutes():
    for pres in (GOLDEN, EVEN, FULL2, POINT):
        tw = build_tower(pres)
        tw.ensure_level(tw.stabilized_at + 3)
        top = tw.top_level
        for l in range(top - 1):
            for k in range(l + 1):
                lhs = filtration_map_A(tw, l + 1, k) @ filtration_map_I(tw, l, k)
                rhs = filtration_map_I(tw, l + 1, k + 1) @ filtration_map_A(tw, l, k)
                assert lhs.to_lists() == rhs.to_lists(), (pres.kind, l, k)


def test_projection_square_commutes():
    for pres in (GOLDEN, EVEN, FULL2, POINT):
        tw = build_tower(pres)
        tw.ensure_level(tw.stabilized_at + 3)
        top = tw.top_level
        for l in range(1, top):
            for k in range(l):
                lhs = filtration_map_I(tw, l, k + 1) @ projection_delta(tw, l, k)
                rhs = projection_delta(tw, l + 1, k) @ filtration_map_I(tw, l, k)
                assert lhs.to_lists() == rhs.to_lists(), (pres.kind, l, k)


def test_boundary_intertwines_refinement():
    for pres in (GOLDEN, EVEN, FULL2, POINT):
        tw = build_tower(pres)
        tw.ensure_level(tw.stabilized_at + 3)
        top = tw.top_level
        for l in range(1, top - 1):
            lhs = matrix_I(tw, l + 1) @ matrix_B(tw, l)
            rhs = matrix_B(tw, l + 1) @ filtration_map_I(tw, l, 1)
            assert lhs.to_lists() == rhs.to_lists(), (pres.kind, l)
