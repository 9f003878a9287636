"""Structural verdicts about a shift space.

Every verdict reads the tower and its predecessor table ``Tower.pre``, the
backward subset automaton; of the relation monoid, condition (I) reads its
size alone.  Four yes/no questions about the class structure are answered
with certificates, plus one lattice enumeration:

* :func:`condition_I` — does every class (at the stabilized level) contain at
  least two points?  Condition (L) on the stable class graph: a class holds
  one point iff no walk from it branches.  A failing class comes with its
  unique point, re-verified on the input graph by a bounded enumeration.
* :func:`condition_star` — does every infinite word class share its past set
  with some class of points?  Decided by a joint partition refinement over
  all states of the backward subset automaton, run to its own fixpoint.
* :func:`aperiodic_past` — can every class be reached from every realized
  T-set by prepending a single bounded-length word?  A breadth-first search
  per class on the class graph, one node per stabilized class and an edge
  per symbol to the class of the predecessor set; Holds carries the uniform
  bound.
* :func:`irreducible_past` — reachability alone, as a *sufficient* check for
  irreducibility; a missing pair yields Inconclusive, never Fails.
* :func:`ideal_lattice` — all shift-invariant unions of stabilized classes,
  with their inclusion order, closed along the same class graph.  These
  three read no level below stabilization.

Every verdict is deterministic: same tower, same answer, same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Optional

from .errors import (
    IdealBudgetExceeded,
    IllDefinedTransition,
    InputFormatError,
    NotStabilized,
)
from .pastsets import _infinite_word_domains
from .presentations import Graph, Word
from .tower import Tower, refine

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one condition check.

    ``bound`` is None for exact decisions and the search radius for bounded
    ones; an Inconclusive verdict is always bounded (an exact computation
    either settles the question or raises).
    """

    condition: str
    status: str
    bound: Optional[int] = None
    certificate: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in (HOLDS, FAILS, INCONCLUSIVE):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == INCONCLUSIVE and self.bound is None:
            raise ValueError("inconclusive verdicts must carry a bound")

    @property
    def method(self):
        """``"exact"`` or ``{"bounded_search": N}``."""
        if self.bound is None:
            return "exact"
        return {"bounded_search": self.bound}

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "method": self.method,
            "certificate": self.certificate,
        }

    def __str__(self) -> str:
        return self.status.upper()


def _vertex_names(tw: Tower, mask: int) -> list[str]:
    return [tw.graph.vertex_names[v] for v in tw.graph.vertices_in(mask)]


# ---------------------------------------------------------------------------
# condition (I): every class contains at least two points
# ---------------------------------------------------------------------------


def _refine_to_fixpoint(
    states: Collection[int], blocks: list, table: dict[int, tuple[int, ...]]
) -> tuple[dict[int, int], int]:
    """Refine ``blocks`` of ``states`` (:func:`~shiftca.tower.refine`) until a
    round splits nothing: the state -> block map and the rounds that split."""
    rounds = 0
    while True:
        block = {s: i for i, members in enumerate(blocks) for s in members}
        finer = refine(states, block, table)
        if len(finer) == len(blocks):
            return block, rounds
        blocks, rounds = finer, rounds + 1


def _one_point_classes(rows: list[tuple[int, ...]]) -> dict[int, tuple[int, int]]:
    """The one-point classes of the stable class graph with predecessor rows
    ``rows``, each with its one outgoing edge (symbol, class).

    A point x = a·y walks from class(x) to class(y) reading a: an edge
    c --a--> d when ``rows[d][a] == c``.  Distinct points give distinct
    walks and every class holds a point, so a class holds one point iff
    every class its walks reach has one outgoing edge.  The classes with
    two or more are marked and the marks closed backwards along the rows.
    A class with no edge holds no point and raises IllDefinedTransition.
    """
    out: list[list[tuple[int, int]]] = [[] for _ in rows]
    for d, row in enumerate(rows):
        for a, c in enumerate(row):
            if c >= 0:
                out[c].append((a, d))
    if not all(out):
        raise IllDefinedTransition(f"stable class {out.index([])} holds no point")
    marked = {c for c, edges in enumerate(out) if len(edges) > 1}
    work = list(marked)
    while work:
        for c in rows[work.pop()]:
            if c >= 0 and c not in marked:
                marked.add(c)
                work.append(c)
    return {c: edges[0] for c, edges in enumerate(out) if c not in marked}


def _sole_point(
    g: Graph, forced: dict[int, tuple[int, int]], c: int
) -> tuple[Word, Word]:
    """The point x of the one-point class c, read along its forced walk and
    split at the first repeat of the word relation: (x[:j], x[j:k]) for the
    least k with R_{x[:k]} = R_{x[:j]}, j < k.  Then x[:j]·x[k:] is a point
    of the class too, so it is x, and x[j:] repeats x[j:k].  Row v of R_u
    holds the ends of the u-paths from v, built symbol by symbol with
    ``Graph.post``."""
    read: list[int] = []
    rel = tuple(1 << v for v in range(g.n_vertices))
    at = {rel: 0}
    while True:
        a, c = forced[c]
        read.append(a)
        rel = tuple(g.post(row, a) for row in rel)
        j = at.setdefault(rel, len(read))
        if j < len(read):
            break
    symbols = g.alphabet.symbols
    return tuple(symbols[a] for a in read[:j]), tuple(symbols[a] for a in read[j:])


def _recheck_sole_point(
    tw: Tower, members: tuple[int, ...], prefix: Word, period: Word, depth: int
) -> None:
    """Second opinion on a one-point class, read off the input graph and
    ``tw.pre``, not the class graph; raises IllDefinedTransition unless
    (a) T(prefix·period^∞), Pre_prefix of the fixpoint of Pre_period from V,
    is a member T-set, and (b) exactly one word of each length up to
    ``depth`` begins a point of the class.  A word w does iff Pre_w(s) is
    a member for a realized s.  The set Q_w of those s fixes every later
    layer, as Q_{w·a} = {s : Pre_a(s) in Q_w}, so (b) stops once Q repeats.
    """
    g = tw.graph
    alphabet = range(len(g.alphabet))

    def pre(t: int, word: Word) -> int:
        for s in reversed(word):
            t = g.pre(t, g.alphabet.index(s))
        return t

    t = g.full_mask
    while pre(t, period) != t:
        t = pre(t, period)
    if not period or pre(t, prefix) not in members:
        raise IllDefinedTransition("certificate point is not in its class")
    q = frozenset(members)
    seen = {q}
    for k in range(1, depth + 1):
        ext = [frozenset(s for s in tw.tsets if tw.pre[s][a] in q) for a in alphabet]
        ext = [e for e in ext if e]
        if len(ext) != 1:
            raise IllDefinedTransition(
                f"{len(ext)} words of length {k} begin a point of the class"
            )
        q = ext[0]
        if q in seen:
            return
        seen.add(q)


def condition_I(tw: Tower, level: Optional[int] = None) -> Verdict:
    """Holds iff every class contains at least two distinct points.

    Checked at the stabilized level: classes below stabilization are unions
    of stabilized classes and every class carries at least one point, so a
    one-point class at a coarser level is a one-point stable class, but a
    coarse class of two points can still split into one-point classes.  At
    a level below ``stabilized_at`` (an explicit ``level``, or the top built
    level of a tower that never stabilized within its budget) a singleton
    therefore FAILS exactly, and its absence is INCONCLUSIVE with that level
    as the bounded-search radius.  Points are counted on the stable class
    graph, the stabilized or top built level refined to its fixpoint with
    no level built (:func:`_one_point_classes`).  A failure certificate
    names the class and its unique eventually periodic point, re-verified
    by :func:`_recheck_sole_point` to depth 2 * monoid size, the only thing
    read off the relation monoid.

    The status is a property of the shift.  The certificate's
    ``reverified_to_depth`` and the split of the point into ``prefix`` and
    ``period`` are properties of the presenting graph: two presentations of
    one shift can give different values.
    """
    default = tw.top_level if tw.stabilized_at is None else tw.stabilized_at
    lvl = default if level is None else level
    tier = tw.level(lvl)
    # every level refines to the same fixpoint, the stable partition
    blocks = [c.tsets for c in tw.level(default).classes]
    stable, _ = _refine_to_fixpoint(tw.tsets, blocks, tw.pre)
    forced = _one_point_classes(_class_rows(tw, stable))
    single = [
        c for c in tier.classes if len(c.tsets) == 1 and stable[c.tsets[0]] in forced
    ]
    if not single:
        cert = {
            "level": lvl,
            "classes": [{"class": c.index, "points": ">=2"} for c in tier.classes],
        }
        if tw.stabilized_at is None or lvl < tw.stabilized_at:
            return Verdict("I", INCONCLUSIVE, lvl, cert)
        return Verdict("I", HOLDS, None, cert)
    cls = single[0]
    prefix, period = _sole_point(tw.graph, forced, stable[cls.tsets[0]])
    depth = 2 * len(tw.monoid)
    _recheck_sole_point(tw, cls.tsets, prefix, period, depth)
    alph = tw.graph.alphabet
    cert = {
        "level": lvl,
        "class": cls.index,
        "point": {
            "prefix": alph.format_word(prefix),
            "period": alph.format_word(period),
        },
        "reverified_to_depth": depth,
    }
    return Verdict("I", FAILS, None, cert)


# ---------------------------------------------------------------------------
# condition (*): infinite word classes are realized by points
# ---------------------------------------------------------------------------


def condition_star(tw: Tower) -> Verdict:
    """Holds iff, at every depth, every infinite word class has the same past
    set as some point class.

    Everything is read off the backward subset automaton B, the table
    ``tw.pre``, and not off the relation monoid.  The states of B are the
    sets Pre_w(V), the domains of the word relations R_w, and its edges
    S -> Pre_a(S) prepend a symbol.  A domain belongs to infinitely many
    words exactly when its state is reachable from a cycle of B (the path of
    a word longer than the number of states repeats a state, and a cycle
    can be pumped), so the candidates are what is left after trimming B to
    the states with a predecessor inside the set.  Past-set equality at
    every depth is decided by refining one partition over *all* states of B
    (closed under nonzero one-symbol predecessors) to its own fixpoint, one
    :func:`~shiftca.tower.refine` round at a time, as the tower does: two
    states share a block at the fixpoint iff their past sets agree at every
    finite depth.  The computation is self-contained, so the verdict status
    is exact even for an unstabilized tower; the method is downgraded to a
    bounded search in that case to keep the budget visible.
    """
    table = tw.pre
    flagged = sorted(_infinite_word_domains(table))
    block, fixpoint_level = _refine_to_fixpoint(table, [list(table)], table)
    least = {block[t]: t for t in reversed(tw.tsets)}  # least T-set per block

    matches = []
    failing = None
    for d in flagged:
        mate = least.get(block[d])
        if mate is not None:
            matches.append(
                {
                    "word_class_dom": _vertex_names(tw, d),
                    "point_tset": _vertex_names(tw, mate),
                }
            )
        elif failing is None:
            failing = d
    bound = None if tw.stabilized_at is not None else fixpoint_level
    if failing is not None:
        cert = {
            "level": fixpoint_level,
            "word_class_dom": _vertex_names(tw, failing),
        }
        return Verdict("star", FAILS, bound, cert)
    cert = {
        "joint_fixpoint_level": fixpoint_level,
        "infinite_word_classes": len(flagged),
        "matches": matches,
    }
    return Verdict("star", HOLDS, bound, cert)


# ---------------------------------------------------------------------------
# reachability of classes from T-sets by prepended words
# ---------------------------------------------------------------------------


def _resolve_level(tw: Tower, level: Optional[int]) -> int:
    """``level``, by default the stabilized level; the class-level verdicts
    read no level below it, where Pre_a need not act on classes."""
    if level is not None and level < 0:
        raise InputFormatError(f"level must be nonnegative, got {level}")
    if tw.stabilized_at is None:
        raise NotStabilized(
            f"tower not stabilized within {tw.top_level} levels; raise max_level"
        )
    if level is None:
        return tw.stabilized_at
    if level < tw.stabilized_at:
        raise NotStabilized(
            f"level {level} is below stabilization at level {tw.stabilized_at}"
        )
    return level


def _class_rows(tw: Tower, cls: dict[int, int]) -> list[tuple[int, ...]]:
    """Per class of the partition ``cls`` (realized T-set -> class index,
    classes numbered from 0): its row of predecessor classes, the class of
    Pre_a(t) per symbol a or -1 when Pre_a(t) is empty, for any member t.
    Raises IllDefinedTransition when a predecessor is not realized or class
    members disagree on a row."""
    rows: dict[int, tuple[int, ...]] = {}
    for t in tw.tsets:
        try:
            row = tuple(cls[p] if p else -1 for p in tw.pre[t])
        except KeyError:
            raise IllDefinedTransition(
                "predecessor of a realized T-set is not realized"
            ) from None
        if rows.setdefault(cls[t], row) != row:
            raise IllDefinedTransition(
                f"members of class {cls[t]} disagree on their predecessor classes"
            )
    return [rows[c] for c in range(len(rows))]


def _class_distances(tw: Tower, lvl: int) -> list[dict[int, int]]:
    """Per class c at the stabilized level ``lvl``: the least |u| with
    class(Pre_u(t)) = d for a member t of c, for every class d so reached.

    Prepending u to a point with T-set t gives a point with T-set Pre_u(t)
    whenever that set is nonempty.  At a stabilized level the class of
    Pre_a(t), and whether it is empty, depend only on the class of t, so
    the search runs on the class graph, with an edge c -> class(Pre_a(t))
    per symbol a; the empty word counts.  Raises IllDefinedTransition when
    a predecessor is not realized or class members disagree on a row.
    """
    cls = {t: c.index for c in tw.level(lvl).classes for t in c.tsets}
    succ = [set(row) - {-1} for row in _class_rows(tw, cls)]
    dists = []
    for c in range(len(succ)):
        dist = {c: 0}
        queue = [c]
        for s in queue:
            for p in succ[s]:
                if p not in dist:
                    dist[p] = dist[s] + 1
                    queue.append(p)
        dists.append(dist)
    return dists


def _first_uncovered(
    tw: Tower, lvl: int, dists: list[dict[int, int]]
) -> Optional[tuple[int, int]]:
    """The first (T-set, class) pair in sorted order whose class no word
    reaches from the T-set, or None when every pair is covered."""
    for t in sorted(tw.tsets):
        row = dists[tw.class_of(lvl, t)]
        for c in range(len(dists)):
            if c not in row:
                return t, c
    return None


def _radius(dists: list[dict[int, int]]) -> int:
    """The class graph's largest finite distance."""
    return max(d for row in dists for d in row.values())


def _recheck_unreachable(tw: Tower, source: int, target_class: int, lvl: int) -> None:
    """Second-opinion saturation with frozensets and raw edge scans."""
    edges = tw.graph.edges
    n_sym = len(tw.graph.alphabet)
    start = frozenset(tw.graph.vertices_in(source))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for a in range(n_sym):
                p = frozenset(src for (src, dst, sym) in edges if sym == a and dst in s)
                if p and p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    for s in seen:
        mask = 0
        for v in s:
            mask |= 1 << v
        if tw.class_of(lvl, mask) == target_class:
            raise IllDefinedTransition(
                "saturation missed a reachable class; implementations disagree"
            )


def aperiodic_past(tw: Tower, level: Optional[int] = None) -> Verdict:
    """Holds iff every class is reachable from every realized T-set by
    prepending some word, with a single uniform length bound.

    The search on the class graph is exact reachability, so an uncovered
    pair is a definitive failure (re-checked by an independently written
    saturation over vertex sets); a full cover yields Holds with the
    maximum of the per-pair minimal word lengths as the recorded bound.
    The empty word is allowed, which is what makes one-class shifts hold
    vacuously.
    """
    lvl = _resolve_level(tw, level)
    dists = _class_distances(tw, lvl)
    gap = _first_uncovered(tw, lvl, dists)
    if gap is not None:
        t, c = gap
        _recheck_unreachable(tw, t, c, lvl)
        cert = {
            "level": lvl,
            "source_tset": _vertex_names(tw, t),
            "unreached_class": c,
        }
        return Verdict("aperiodic", FAILS, None, cert)
    cert = {"level": lvl, "pairs": len(tw.tsets) * len(dists)}
    return Verdict("aperiodic", HOLDS, _radius(dists), cert)


def irreducible_past(tw: Tower, level: Optional[int] = None) -> Verdict:
    """Sufficient check: Holds when every class is reachable from every
    realized T-set.  An uncovered pair is Inconclusive, not Fails — the
    underlying property quantifies over sequences of points and is not
    refuted by one unreachable pair.

    The ``bounded_search`` radius is the class graph's largest finite
    distance: the longest minimal word from a class to a class it reaches.
    The class graph belongs to the shift, not to its presentation.
    """
    lvl = _resolve_level(tw, level)
    dists = _class_distances(tw, lvl)
    gap = _first_uncovered(tw, lvl, dists)
    if gap is not None:
        t, c = gap
        cert = {
            "level": lvl,
            "source_tset": _vertex_names(tw, t),
            "unreached_class": c,
            "note": "reachability is sufficient, not necessary",
        }
        return Verdict("irreducible", INCONCLUSIVE, _radius(dists), cert)
    cert = {
        "level": lvl,
        "pairs": len(tw.tsets) * len(dists),
        "note": "strong connectivity of the class graph; sufficient check",
    }
    return Verdict("irreducible", HOLDS, _radius(dists), cert)


# ---------------------------------------------------------------------------
# ideal lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealLatticeReport:
    """All shift-invariant unions of stabilized classes, ordered by
    inclusion.  ``elements`` are sorted class-index tuples; ``order`` lists
    Hasse cover pairs as indices into ``elements``."""

    level: int
    elements: tuple[tuple[int, ...], ...]
    order: tuple[tuple[int, int], ...]
    reading: str

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "elements": [list(e) for e in self.elements],
            "order": [list(p) for p in self.order],
            "reading": self.reading,
        }


_READING_NOTE = (
    "ideals = unions of stabilized classes closed under one-step shifts "
    "(dropping a leading symbol); the alternative past-closure reading is "
    "not applied, since with its for-some-depth quantifier it is vacuous "
    "and as an unconditional closure it contradicts the order-ideal count "
    "of the stationary system on triangular examples"
)


#: Largest ideal lattice ``ideal_lattice`` enumerates; the lattice of m
#: mutually unreachable classes has 2^m elements.
IDEAL_CAP = 65_536


def ideal_lattice(tw: Tower, level: Optional[int] = None) -> IdealLatticeReport:
    """Enumerate shift-invariant unions of stabilized classes.

    Dropping the leading symbol of a point with T-set pre_a(t) yields a
    point with T-set t, so invariance of a union S of classes means: every
    successor class of a member is a member.  The least invariant union
    holding class c is every class from which some prepended word reaches
    c, read off the class graph's distances.  Elements are generated as
    unions of these principal closures.  Raises
    :class:`IdealBudgetExceeded` past ``IDEAL_CAP`` elements.
    """
    lvl = _resolve_level(tw, level)
    dists = _class_distances(tw, lvl)
    m = len(dists)
    closures: list[set[int]] = [set() for _ in range(m)]
    for d, row in enumerate(dists):
        for c in row:
            closures[c].add(d)

    elements = {frozenset()}
    work = [frozenset()]
    while work:
        e = work.pop()
        for c in range(m):
            u = e | closures[c]
            if u not in elements:
                elements.add(u)
                if len(elements) > IDEAL_CAP:
                    raise IdealBudgetExceeded(
                        f"ideal lattice of {m} classes at level {lvl} has more "
                        f"than {IDEAL_CAP} elements"
                    )
                work.append(u)
    ordered = sorted(elements, key=lambda e: (len(e), sorted(e)))
    index = {e: i for i, e in enumerate(ordered)}
    # every element above e contains some e | closures[c] with c not in e,
    # so the covers of e are the inclusion-minimal such unions
    covers = []
    for e in ordered:
        ups = {e | closures[c] for c in range(m) if c not in e}
        covers.extend((index[e], index[u]) for u in ups if not any(v < u for v in ups))
    covers.sort()
    return IdealLatticeReport(
        level=lvl,
        elements=tuple(tuple(sorted(e)) for e in ordered),
        order=tuple(covers),
        reading=_READING_NOTE,
    )
