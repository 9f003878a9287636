"""Structural conditions on the stabilized tower, with frozen certificates."""

import random
from itertools import product

import pytest

import shiftca.conditions
from shiftca.conditions import (
    Verdict,
    _class_rows,
    _one_point_classes,
    _recheck_sole_point,
    _refine_to_fixpoint,
    _sole_point,
    _vertex_names,
    aperiodic_past,
    condition_I,
    condition_star,
    ideal_lattice,
    irreducible_past,
)
from shiftca.errors import (
    BudgetError,
    EmptyShift,
    IdealBudgetExceeded,
    IllDefinedTransition,
    InputFormatError,
    NotStabilized,
)
from shiftca.pastsets import _infinite_word_domains, _trim_to_live
from shiftca.presentations import Presentation
from shiftca.tower import build_tower

from monoid_reference import MonoidGraph

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)
POINT = Presentation.sft(("0",), ((1,),))
TWO_POINTS = Presentation.sft(("0", "1"), ((1, 0), (0, 1)))
FULL2 = Presentation.sft(("a", "b"), ((1, 1), (1, 1)))


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict("I", "maybe")
    with pytest.raises(ValueError):
        Verdict("I", "inconclusive")  # must carry a bound
    v = Verdict("I", "inconclusive", bound=3)
    assert v.method == {"bounded_search": 3}
    assert str(v) == "INCONCLUSIVE"
    assert Verdict("I", "holds").method == "exact"


def test_golden_condition_verdicts():
    tw = build_tower(GOLDEN)
    assert condition_I(tw).to_json_dict() == {
        "condition": "I",
        "status": "holds",
        "method": "exact",
        "certificate": {
            "level": 1,
            "classes": [
                {"class": 0, "points": ">=2"},
                {"class": 1, "points": ">=2"},
            ],
        },
    }
    v = aperiodic_past(tw)
    assert (v.status, v.bound, v.certificate) == ("holds", 1, {"level": 1, "pairs": 4})
    v = irreducible_past(tw)
    assert (v.status, v.bound) == ("holds", 1)


def test_golden_condition_star():
    v = condition_star(build_tower(GOLDEN))
    assert v.status == "holds"
    assert v.method == "exact"
    assert v.certificate == {
        "infinite_word_classes": 2,
        "joint_fixpoint_level": 1,
        "matches": [
            {"point_tset": ["0"], "word_class_dom": ["0"]},
            {"point_tset": ["0", "1"], "word_class_dom": ["0", "1"]},
        ],
    }


def test_even_shift_condition_verdicts():
    tw = build_tower(EVEN)
    assert condition_I(tw).to_json_dict() == {
        "condition": "I",
        "status": "fails",
        "method": "exact",
        "certificate": {
            "class": 0,
            "level": 2,
            "point": {"prefix": "", "period": "11"},
            "reverified_to_depth": 12,
        },
    }
    assert condition_star(tw).status == "holds"
    v = aperiodic_past(tw)
    assert v.to_json_dict() == {
        "condition": "aperiodic",
        "status": "fails",
        "method": "exact",
        "certificate": {"level": 2, "source_tset": ["0"], "unreached_class": 0},
    }
    v = irreducible_past(tw)
    assert v.status == "inconclusive"
    assert v.bound == 2
    assert v.certificate["note"] == "reachability is sufficient, not necessary"


def test_condition_I_below_stabilization_is_inconclusive():
    # the even shift's one-point class splits off at its stable level 2;
    # above it every class has two points
    tw = build_tower(EVEN)
    assert tw.stabilized_at == 2
    for level in (0, 1):
        v = condition_I(tw, level=level)
        assert (v.status, v.method) == ("inconclusive", {"bounded_search": level})
    v = condition_I(tw, level=2)
    assert (v.status, v.method) == ("fails", "exact")
    v = condition_I(build_tower(EVEN, max_level=1))
    assert (v.status, v.method) == ("inconclusive", {"bounded_search": 1})
    # a one-point class at a coarse level is a one-point stable class
    v = condition_I(build_tower(EVEN, max_level=2))
    assert (v.status, v.method) == ("fails", "exact")
    # the even shift plus a fixed point c: c^oo is alone from level 1 on
    tw = build_tower(Presentation.labeled_graph(
        ("0", "1", "c"), 3, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1"), (2, 2, "c")]
    ))
    assert tw.stabilized_at == 2
    v = condition_I(tw, level=1)
    assert (v.status, v.method) == ("fails", "exact")
    assert v.certificate["point"] == {"prefix": "c", "period": "c"}


def test_single_point_condition_verdicts():
    tw = build_tower(POINT)
    v = condition_I(tw)
    assert v.status == "fails"
    assert v.certificate == {
        "class": 0,
        "level": 0,
        "point": {"prefix": "", "period": "0"},
        "reverified_to_depth": 2,
    }
    assert condition_star(tw).status == "holds"
    v = aperiodic_past(tw)
    assert (v.status, v.bound) == ("holds", 0)
    assert irreducible_past(tw).status == "holds"


def test_two_fixed_points_condition_verdicts():
    tw = build_tower(TWO_POINTS)
    v = condition_I(tw)
    assert v.status == "fails"
    assert v.certificate["point"] == {"prefix": "0", "period": "0"}
    assert condition_star(tw).status == "holds"
    v = aperiodic_past(tw)
    assert v.to_json_dict() == {
        "condition": "aperiodic",
        "status": "fails",
        "method": "exact",
        "certificate": {"level": 1, "source_tset": ["0"], "unreached_class": 1},
    }
    assert irreducible_past(tw).status == "inconclusive"


def test_full_shift_condition_verdicts():
    tw = build_tower(FULL2)
    assert condition_I(tw).status == "holds"
    assert condition_star(tw).status == "holds"
    assert aperiodic_past(tw).status == "holds"
    assert irreducible_past(tw).status == "holds"


# a word class with domain {0, 2} is infinite and no point shares its past
STAR_FAILS = Presentation.labeled_graph(
    ("a", "b"),
    4,
    [(0, 1, "a"), (0, 2, "b"), (1, 0, "a"), (2, 0, "b"), (2, 3, "a"), (3, 3, "b")],
)


class _PoisonedMonoid:
    def __getattribute__(self, name):
        raise AssertionError(f"read monoid.{name}")


def _size_only(n):
    """A relation monoid stand-in that answers ``len`` and nothing else."""

    class SizeOnly(_PoisonedMonoid):
        def __len__(self):
            return n

    return SizeOnly()


# (presentation, max_level); the even shift at 1 does not stabilize
MONOID_FREE_TOWERS = ((GOLDEN, 64), (EVEN, 64), (EVEN, 1), (FULL2, 64),
                      (TWO_POINTS, 64), (STAR_FAILS, 64))


def test_condition_star_reads_no_monoid():
    assert condition_star(build_tower(STAR_FAILS)).to_json_dict() == {
        "condition": "star",
        "status": "fails",
        "method": "exact",
        "certificate": {"level": 4, "word_class_dom": ["0", "2"]},
    }
    for pres, max_level in MONOID_FREE_TOWERS:
        tw = build_tower(pres, max_level=max_level)
        want = condition_star(tw).to_json_dict()
        tw.monoid = _PoisonedMonoid()
        assert condition_star(tw).to_json_dict() == want


def _star_by_scan(tw):
    """Reference for :func:`condition_star`: each flagged state scans every
    realized T-set for one in its block, O(|flagged| * |T-sets|)."""
    table = tw.pre
    flagged = sorted(_infinite_word_domains(table))
    realized = set(tw.tsets)
    block, fixpoint_level = _refine_to_fixpoint(table, [list(table)], table)
    matches, failing = [], None
    for d in flagged:
        mates = sorted(t for t in realized if block[t] == block[d])
        if mates:
            matches.append(
                {
                    "word_class_dom": _vertex_names(tw, d),
                    "point_tset": _vertex_names(tw, mates[0]),
                }
            )
        elif failing is None:
            failing = d
    bound = None if tw.stabilized_at is not None else fixpoint_level
    if failing is not None:
        cert = {"level": fixpoint_level, "word_class_dom": _vertex_names(tw, failing)}
        return Verdict("star", "fails", bound, cert)
    cert = {
        "joint_fixpoint_level": fixpoint_level,
        "infinite_word_classes": len(flagged),
        "matches": matches,
    }
    return Verdict("star", "holds", bound, cert)


def _reversed_kth_from_end(k):
    """The "k-th symbol from the end is 1" graph with every edge reversed:
    its backward subset automaton has 2^k states, all of them realized."""
    edges = [(0, 0, "0"), (0, 0, "1"), (0, 1, "1")]
    edges += [(i, i + 1, s) for i in range(1, k) for s in "01"]
    edges += [(k, 0, s) for s in "01"]
    return Presentation.labeled_graph(("0", "1"), k + 1, [(b, a, s) for a, b, s in edges])


def test_condition_star_matches_the_scan():
    towers = [build_tower(p, max_level=m) for p, m in MONOID_FREE_TOWERS]
    rng = random.Random(11)
    for _ in range(3000):
        nv, ns = rng.randint(2, 6), rng.randint(2, 3)
        syms = "abc"[:ns]
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice(syms))
            for _ in range(rng.randint(nv, 3 * nv))
        }
        try:
            towers.append(build_tower(Presentation.labeled_graph(syms, nv, sorted(edges))))
        except EmptyShift:
            continue
    rev12 = build_tower(_reversed_kth_from_end(12))
    assert len(rev12.tsets) == 2**12
    statuses = []
    for tw in towers + [rev12]:
        want = _star_by_scan(tw).to_json_dict()
        assert condition_star(tw).to_json_dict() == want
        statuses.append(want["status"])
    # the corpus reaches FAILS beyond STAR_FAILS
    assert statuses.count("fails") > 1


def test_condition_I_reads_only_the_monoid_size():
    for pres, max_level in MONOID_FREE_TOWERS:
        tw = build_tower(pres, max_level=max_level)
        want = condition_I(tw).to_json_dict()
        tw.monoid = _size_only(len(tw.monoid))
        assert condition_I(tw).to_json_dict() == want
    # the re-check stops once the set of T-sets that its one word can lead
    # repeats, so a huge depth costs nothing
    tw = build_tower(EVEN)
    tw.monoid = _size_only(10**12)
    assert condition_I(tw).certificate["reverified_to_depth"] == 2 * 10**12


def test_sole_point_recheck_refuses_wrong_certificates():
    tw = build_tower(EVEN)
    # class 0 = {T((11)^oo)} holds one point, class 1 = {T(0^oo)} many
    assert [c.tsets for c in tw.level(2).classes] == [(3,), (1,), (2,)]
    _recheck_sole_point(tw, (3,), (), ("1", "1"), 12)
    _recheck_sole_point(tw, (3,), ("1", "1"), ("1", "1", "1", "1"), 12)
    for prefix, period in (((), ("0",)), (("0",), ("1", "1")), ((), ())):
        with pytest.raises(IllDefinedTransition, match="not in its class"):
            _recheck_sole_point(tw, (3,), prefix, period, 12)
    with pytest.raises(IllDefinedTransition, match="2 words of length 1 begin"):
        _recheck_sole_point(tw, (1,), (), ("0",), 12)


def test_negative_levels_raise_input_format_error():
    tw = build_tower(EVEN)
    top = tw.top_level
    for read in (tw.level, tw.ensure_level, lambda l: tw.class_of(l, 3)):
        with pytest.raises(InputFormatError, match="got -1"):
            read(-1)
    for fn in (condition_I, aperiodic_past, irreducible_past, ideal_lattice):
        with pytest.raises(InputFormatError, match="got -1"):
            fn(tw, level=-1)
        # before NotStabilized on a tower that did not stabilize
        with pytest.raises(InputFormatError):
            fn(build_tower(EVEN, max_level=1), level=-2)
    assert tw.top_level == top


def test_parallel_readings_do_not_fake_a_second_point():
    # The ray a b d d d... is read by two distinct vertex runs (through the
    # parallel b-edges into separate d-loops), but it is still one point; a
    # run count would call its class a two-point class and let the condition
    # pass.  The verdict must fail, naming that very point.
    pres = Presentation.labeled_graph(
        ("a", "b", "d"), 4,
        [(0, 1, "b"), (0, 2, "b"), (1, 1, "d"), (2, 2, "d"), (3, 0, "a")],
    )
    tw = build_tower(pres)
    assert tw.stabilized_at == 1
    assert [tw.m(l) for l in range(3)] == [1, 3, 3]
    v = condition_I(tw)
    assert v.status == "fails"
    assert v.method == "exact"
    assert v.certificate == {
        "class": 0,
        "level": 1,
        "point": {"prefix": "ab", "period": "d"},
        "reverified_to_depth": 10,
    }


def test_golden_ideal_lattice():
    rep = ideal_lattice(build_tower(GOLDEN))
    assert rep.level == 1
    assert rep.elements == ((), (0, 1))
    assert rep.order == ((0, 1),)
    assert "unions of stabilized classes" in rep.reading


def test_even_shift_ideal_lattice():
    rep = ideal_lattice(build_tower(EVEN))
    assert rep.level == 2
    assert rep.elements == ((), (0,), (0, 1, 2))
    assert rep.order == ((0, 1), (1, 2))


def test_two_fixed_points_ideal_lattice():
    rep = ideal_lattice(build_tower(TWO_POINTS))
    assert rep.elements == ((), (0,), (1,), (0, 1))
    assert rep.order == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_minimal_shifts_have_two_ideals():
    for pres in (POINT, FULL2):
        rep = ideal_lattice(build_tower(pres))
        assert len(rep.elements) == 2
        assert rep.order == ((0, 1),)


def test_verdicts_stable_one_level_past_stabilization():
    for pres in (GOLDEN, EVEN, TWO_POINTS):
        tw = build_tower(pres)
        l0 = tw.stabilized_at
        for fn in (condition_I, aperiodic_past, irreducible_past):
            assert fn(tw, level=l0).status == fn(tw, level=l0 + 1).status, (
                pres.kind,
                fn.__name__,
            )
        a = ideal_lattice(tw, level=l0)
        b = ideal_lattice(tw, level=l0 + 1)
        assert (a.elements, a.order) == (b.elements, b.order)


def test_class_verdicts_refuse_levels_below_stabilization():
    tw = build_tower(EVEN)
    short = build_tower(EVEN, max_level=1)
    assert (tw.stabilized_at, short.stabilized_at) == (2, None)
    for fn in (aperiodic_past, irreducible_past, ideal_lattice):
        with pytest.raises(NotStabilized, match="level 1 is below stabilization"):
            fn(tw, level=1)
        for level in (None, 1):
            with pytest.raises(NotStabilized, match="within 1 levels; raise max_level$"):
                fn(short, level=level)


# the class {0, 1}, {0, 3}, {0, 1, 3} of three T-sets at the stabilized level
SHARED_CLASS = Presentation.labeled_graph(
    ("a", "b"),
    4,
    [(0, 0, "a"), (0, 1, "b"), (0, 2, "a"), (0, 3, "a"), (0, 3, "b"),
     (1, 0, "b"), (2, 1, "a"), (2, 3, "a"), (3, 1, "b")],
)


@pytest.mark.parametrize("corruption", ["no predecessor", "another class"])
def test_class_members_disagreeing_on_predecessors_raise(corruption):
    tw = build_tower(SHARED_CLASS)
    lvl = tw.stabilized_at
    members = next(c.tsets for c in tw.level(lvl).classes if len(c.tsets) > 1)
    assert members == (3, 9, 11)
    row = list(tw.pre[9])
    if corruption == "no predecessor":
        row = [0] * len(row)
    else:
        a = next(a for a, p in enumerate(row) if p)
        row[a] = next(
            t for t in tw.tsets if tw.class_of(lvl, t) != tw.class_of(lvl, row[a])
        )
    tw.pre[9] = tuple(row)
    for fn in (aperiodic_past, irreducible_past, ideal_lattice):
        with pytest.raises(IllDefinedTransition, match="disagree on their predecessor"):
            fn(tw)


# ---------------------------------------------------------------------------
# point counting against a per-T-set count on the relation monoid
# ---------------------------------------------------------------------------


def _count_points_with_tset(monoid: MonoidGraph, t: int):
    """Clamped-at-2 number of points whose readable-vertex set is exactly t.

    A point is an infinite walk in the monoid graph starting at the identity,
    and its T-set is the eventually-constant domain along the walk (domains
    only shrink).  Walks with eventual domain t therefore decompose uniquely
    into a first-entry prefix into S = {nodes with domain t} followed by an
    infinite tail inside S, so the count is

        sum over r in S of  (#entry walks to r) * (#infinite tails from r),

    with both factors clamped at 2.  Returns ``(count, witness)`` where
    witness is ``(prefix_word, cycle_word)`` for the unique point when
    count == 1, else None.
    """
    n = len(monoid)
    n_sym = len(monoid.graph.alphabet)
    in_s = [monoid.doms[i] == t for i in range(n)]
    s_nodes = {i for i in range(n) if in_s[i]}
    live = _trim_to_live(s_nodes, monoid.successors)

    # tails: from r in live, the tail is unique iff no reachable node inside
    # live offers two symbols that stay in live
    rev: dict[int, set[int]] = {v: set() for v in live}
    branching = set()
    for v in live:
        stay = 0
        for a in range(n_sym):
            j = monoid.step[v][a]
            if j is not None and j in live:
                stay += 1
                rev[j].add(v)
        if stay >= 2:
            branching.add(v)
    sees_branch = set(branching)
    work = list(branching)
    while work:
        v = work.pop()
        for p in rev[v]:
            if p not in sees_branch:
                sees_branch.add(p)
                work.append(p)

    def tails(r: int) -> int:
        if r not in live:
            return 0
        return 2 if r in sees_branch else 1

    # entry walks: clamped counts of walks from the identity that stay
    # outside S until the final step
    preds: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if in_s[v]:
            continue
        for a in range(n_sym):
            j = monoid.step[v][a]
            if j is not None:
                preds[j].append(v)
    if in_s[0]:
        # every walk starts inside S, so the empty walk is the only entry
        entry = {r: (1 if r == 0 else 0) for r in s_nodes}
    else:
        w = [0] * n
        for _ in range(2 * n + 2):
            nw = [0] * n
            for v in range(n):
                if in_s[v]:
                    continue
                acc = 1 if v == 0 else 0
                for p in preds[v]:
                    acc += w[p]
                nw[v] = min(acc, 2)
            if nw == w:
                break
            w = nw
        else:  # pragma: no cover - the clamp bounds total growth by 2n
            raise IllDefinedTransition("entry-walk counting failed to settle")
        entry = {r: min(sum(w[p] for p in preds[r]), 2) for r in s_nodes}

    count = 0
    sole = None
    for r in sorted(s_nodes):
        k = min(entry[r] * tails(r), 2)
        if k == 1:
            sole = r
        count = min(count + k, 2)
    if count != 1:
        return count, None

    # witness reconstruction: unique entry walk, then the forced tail
    assert sole is not None
    prefix: list[int] = []
    if not in_s[0]:
        # follow the unique chain of weight-1 contributions back to the seed;
        # a weight-1 node other than the identity has exactly one incoming
        # edge from a weight-1 node, and the identity's weight is its seed
        node = sole
        visited: set[int] = set()
        while node != 0:
            contributors = [
                (p, a)
                for p in range(n)
                if not in_s[p] and w[p] == 1
                for a in range(n_sym)
                if monoid.step[p][a] == node
            ]
            if len(contributors) != 1:
                raise IllDefinedTransition("unique entry walk is not unique")
            p, a = contributors[0]
            prefix.append(a)
            if p in visited:
                raise IllDefinedTransition("entry walk reconstruction cycled")
            visited.add(p)
            node = p
        prefix.reverse()

    tail_syms: list[int] = []
    order = {sole: 0}
    cur = sole
    while True:
        nxt = None
        sym = None
        for a in range(n_sym):
            j = monoid.step[cur][a]
            if j is not None and j in live:
                if nxt is not None:
                    raise IllDefinedTransition("forced tail branches")
                nxt, sym = j, a
        if nxt is None:
            raise IllDefinedTransition("forced tail dies")
        tail_syms.append(sym)
        cur = nxt
        if cur in order:
            split = order[cur]
            break
        order[cur] = len(tail_syms)

    symbols = list(monoid.graph.alphabet)
    prefix_word = tuple(symbols[a] for a in prefix) + tuple(
        symbols[a] for a in tail_syms[:split]
    )
    cycle_word = tuple(symbols[a] for a in tail_syms[split:])
    return 1, (prefix_word, cycle_word)


def _small_graphs():
    """Every labeled graph with at most 2 vertices and 2 symbols, then a
    seeded sample with at most 5 vertices and 3 symbols."""
    for nv, ns in ((1, 1), (1, 2), (2, 1), (2, 2)):
        syms = "ab"[:ns]
        slots = list(product(range(nv), range(nv), syms))
        for bits in range(1, 1 << len(slots)):
            yield syms, nv, [e for i, e in enumerate(slots) if bits >> i & 1]
    rng = random.Random(20260)
    for _ in range(1500):
        nv, ns = rng.randint(1, 5), rng.randint(1, 3)
        syms = "abc"[:ns]
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice(syms))
            for _ in range(rng.randint(1, 3 * nv))
        }
        yield syms, nv, sorted(edges)


def _small_towers():
    for syms, nv, edges in _small_graphs():
        try:
            yield build_tower(Presentation.labeled_graph(syms, nv, edges))
        except EmptyShift:
            continue


def test_point_counts_match_per_tset_reference():
    # per stable class, refined from one block: the class-graph count and
    # witness against the clamped sum over its members on the monoid
    compared = unique = identity_in_s = looped_identity = 0
    for tw in _small_towers():
        monoid = MonoidGraph(tw.graph)
        assert len(monoid) == len(tw.monoid)
        stable, _ = _refine_to_fixpoint(tw.tsets, [tw.tsets], tw.pre)
        forced = _one_point_classes(_class_rows(tw, stable))
        members: dict[int, list[int]] = {}
        for t in tw.tsets:
            members.setdefault(stable[t], []).append(t)
        for c, tsets in members.items():
            want = [_count_points_with_tset(monoid, t) for t in tsets]
            count = min(sum(n for n, _ in want), 2)
            assert (1 if c in forced else 2) == count, (tw.graph, c)
            if count == 1:
                assert _sole_point(tw.graph, forced, c) == want[0][1], (tw.graph, c)
                unique += 1
            compared += 1
            identity_in_s += monoid.doms[0] in tsets
        looped_identity += any(0 in row for row in monoid.step)
    assert compared > 1000 and unique > 300
    assert identity_in_s > 0 and looped_identity > 0


def _reference_condition_I(tw, lvl, counts):
    """condition_I's JSON at ``lvl`` from ``counts``, T-set ->
    ``_count_points_with_tset`` on the monoid."""
    classes = tw.level(lvl).classes
    for c in classes:
        if min(sum(counts[t][0] for t in c.tsets), 2) == 1:
            prefix, period = counts[c.tsets[0]][1]
            fmt = tw.graph.alphabet.format_word
            cert = {
                "level": lvl,
                "class": c.index,
                "point": {"prefix": fmt(prefix), "period": fmt(period)},
                "reverified_to_depth": 2 * len(tw.monoid),
            }
            return {"condition": "I", "status": "fails", "method": "exact",
                    "certificate": cert}
    cert = {
        "level": lvl,
        "classes": [{"class": c.index, "points": ">=2"} for c in classes],
    }
    if tw.stabilized_at is None or lvl < tw.stabilized_at:
        return {"condition": "I", "status": "inconclusive",
                "method": {"bounded_search": lvl}, "certificate": cert}
    return {"condition": "I", "status": "holds", "method": "exact", "certificate": cert}


def test_condition_I_matches_monoid_reference():
    verdicts = {}
    for full in _small_towers():
        monoid = MonoidGraph(full.graph)
        counts = {t: _count_points_with_tset(monoid, t) for t in full.tsets}
        for max_level in (64, 0, 1, 2, 3):
            tw = build_tower(full.graph, max_level)
            default = tw.top_level if tw.stabilized_at is None else tw.stabilized_at
            got = condition_I(tw).to_json_dict()
            assert got == _reference_condition_I(tw, default, counts), tw.graph
            for lvl in range(tw.top_level + 1):
                got = condition_I(tw, level=lvl).to_json_dict()
                assert got == _reference_condition_I(tw, lvl, counts), (tw.graph, lvl)
                verdicts[got["status"]] = verdicts.get(got["status"], 0) + 1
    assert min(verdicts.values()) > 1000, verdicts


def _brute_covers(elements):
    sets = [frozenset(e) for e in elements]
    return sorted(
        (i, j)
        for i, a in enumerate(sets)
        for j, b in enumerate(sets)
        if a < b and not any(a < c < b for c in sets)
    )


def test_ideal_covers_match_cubic_scan():
    rng = random.Random(4)
    presentations = [
        Presentation.sft(
            tuple("abcdef"[:n]), [[int(i == j) for j in range(n)] for i in range(n)]
        )
        for n in (5, 6)
    ]
    while len(presentations) < 14:
        # a fixed point per symbol plus random forward edges: a poset of
        # classes, so the lattices branch
        n = rng.randint(3, 6)
        matrix = [
            [int(i == j or (i < j and rng.random() < 0.3)) for j in range(n)]
            for i in range(n)
        ]
        presentations.append(Presentation.sft(tuple("abcdef"[:n]), matrix))
    while len(presentations) < 40:
        nv = rng.randint(2, 5)
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice("ab"))
            for _ in range(rng.randint(2, 2 * nv))
        }
        presentations.append(Presentation.labeled_graph(("a", "b"), nv, sorted(edges)))
    sizes = []
    for pres in presentations:
        try:
            tw = build_tower(pres)
        except EmptyShift:
            continue
        rep = ideal_lattice(tw)
        assert list(rep.order) == _brute_covers(rep.elements), pres
        sizes.append((len(rep.elements), len(rep.order)))
    # identity SFTs: the Boolean lattice on n classes has n * 2^(n-1) covers
    assert sizes[:2] == [(32, 80), (64, 192)]
    assert len(sizes) > 20 and sum(e > 3 for e, _ in sizes) > 5


def identity_sft(n):
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    return Presentation.sft(tuple(str(i) for i in range(n)), matrix)


def test_ideal_lattice_stops_at_its_budget(monkeypatch):
    # n mutually unreachable classes give 2^n ideals
    assert len(ideal_lattice(build_tower(identity_sft(9))).elements) == 512
    tw = build_tower(identity_sft(7))
    assert len(ideal_lattice(tw).elements) == 128
    monkeypatch.setattr(shiftca.conditions, "IDEAL_CAP", 127)
    with pytest.raises(IdealBudgetExceeded, match="more than 127 elements") as err:
        ideal_lattice(tw)
    assert isinstance(err.value, BudgetError) and err.value.exit_code == 2
    monkeypatch.setattr(shiftca.conditions, "IDEAL_CAP", 128)
    assert len(ideal_lattice(tw).elements) == 128
