"""Structural verdicts about a shift space.

Only condition (I) reads the relation monoid, to count points; the others
read the tower and its predecessor table ``Tower.pre``, the backward subset
automaton.  Four yes/no questions about the class structure are answered with
certificates, plus one lattice enumeration:

* :func:`condition_I` — does every class (at the stabilized level) contain at
  least two points?  Decided by one pass over the monoid graph that counts
  the points of every realized T-set at once, clamped at 2, as entry words
  times forced tails; a failing class comes with its unique point, which is
  re-verified by an independent bounded enumeration.
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
from typing import Optional

from .errors import IdealBudgetExceeded, IllDefinedTransition, NotStabilized
from .pastsets import MonoidGraph, _trim_to_live
from .presentations import Word
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


def _point_counts(
    monoid: MonoidGraph,
) -> dict[int, tuple[int, Optional[tuple[Word, Word]]]]:
    """Clamped-at-2 number of points per realized T-set, in one pass.

    A point is an infinite walk in the monoid graph starting at the identity,
    and its T-set is the eventually-constant domain along the walk (domains
    only shrink).  Walks with eventual domain t therefore decompose uniquely
    into a first-entry prefix into S = {nodes with domain t} followed by an
    infinite tail inside the live part of S, so the count is

        sum over live r in S of  entry(r) * tails(r),

    with every term clamped at 2.  Every node before the entry step has a
    domain strictly above t, so any word reaching it will do:

        entry(r) = [r = 0] + sum over in-edges (p, a) with dom(p) != dom(r)
                   of words(p),

    where words(p), the clamped number of words reaching p, is 1 exactly on
    the tree of in-degree-1 nodes grown from an in-degree-0 identity (its
    parent edges spell the prefix) and 2 elsewhere.  Maps each T-set to
    ``(count, witness)``, where witness is ``(prefix_word, cycle_word)`` for
    the unique point when count == 1, else None.
    """
    step = monoid.step
    doms = monoid.doms
    indeg = [0] * len(monoid)
    for row in step:
        for j in row:
            if j is not None:
                indeg[j] += 1
    tree: dict[int, Optional[tuple[int, int]]] = {}  # node -> (parent, symbol)
    if indeg[0] == 0:
        tree[0] = None
        work = [0]
        while work:
            p = work.pop()
            for a, j in enumerate(step[p]):
                if j is not None and indeg[j] == 1:
                    tree[j] = (p, a)
                    work.append(j)
    entry = [0] * len(monoid)
    entry[0] = 1
    entered_by: dict[int, tuple[int, int]] = {}
    for p, row in enumerate(step):
        for a, r in enumerate(row):
            if r is not None and doms[r] != doms[p]:
                entry[r] += 1 if p in tree else 2
                entered_by[r] = (p, a)

    symbols = monoid.graph.alphabet.symbols
    out = {}
    for t, live in monoid.live_by_dom.items():
        # tails: from r the tail is unique iff no node it reaches inside live
        # offers two symbols that stay in live
        stay = {v: [(a, j) for a, j in enumerate(step[v]) if j in live] for v in live}
        rev: dict[int, list[int]] = {v: [] for v in live}
        for v, edges in stay.items():
            for _, j in edges:
                rev[j].append(v)
        branches = {v for v in live if len(stay[v]) >= 2}
        work = list(branches)
        while work:
            for p in rev[work.pop()]:
                if p not in branches:
                    branches.add(p)
                    work.append(p)
        count = 0
        sole = None
        for r in live:
            k = min(entry[r] * (2 if r in branches else 1), 2)
            if k == 1:
                sole = r
            count = min(count + k, 2)
        if count != 1:
            out[t] = (count, None)
            continue

        # witness: the tree path to the single entry edge, then the forced
        # tail until it repeats a node
        prefix: list[int] = []
        edge = entered_by.get(sole)
        while edge is not None:
            p, a = edge
            prefix.append(a)
            edge = tree[p]
        prefix.reverse()
        tail: list[int] = []
        order = {sole: 0}
        cur = sole
        while True:
            ((a, cur),) = stay[cur]
            tail.append(a)
            if cur in order:
                break
            order[cur] = len(tail)
        split = order[cur]
        prefix_word = tuple(symbols[a] for a in prefix + tail[:split])
        out[t] = (1, (prefix_word, tuple(symbols[a] for a in tail[split:])))
    return out


def _reverify_unique_point(
    tw: Tower, level: int, class_index: int, prefix: Word, cycle: Word, depth: int
) -> None:
    """Independent bounded re-check of a condition (I) failure certificate.

    Raises when either the claimed point does not land in the claimed class,
    or when counting admissible length-``depth`` prefixes of class members
    finds anything other than exactly one.
    """
    monoid = tw.monoid
    alph = tw.graph.alphabet
    # (a) walk the point and pin its eventual T-set
    node = 0
    for s in prefix:
        stepped = monoid.step[node][alph.index(s)]
        if stepped is None:
            raise IllDefinedTransition("certificate point leaves the language")
        node = stepped
    if not cycle:
        raise IllDefinedTransition("certificate period is empty")
    # iterate the period until the (node, phase) state repeats; past that
    # point the walk is periodic, so admissibility holds at every length and
    # the domain is pinned at its eventual value
    seen: set[tuple[int, int]] = set()
    phase = 0
    while (node, phase) not in seen:
        seen.add((node, phase))
        stepped = monoid.step[node][alph.index(cycle[phase])]
        if stepped is None:
            raise IllDefinedTransition("certificate point leaves the language")
        node = stepped
        phase = (phase + 1) % len(cycle)
    eventual = monoid.doms[node]
    if tw.class_of(level, eventual) != class_index:
        raise IllDefinedTransition("certificate point lands in the wrong class")

    # (b) clamped count of length-`depth` words extendable to a point of the
    # class: a word extends iff its monoid node can reach the live part of
    # some member T-set
    targets: set[int] = set()
    for t in tw.level(level).classes[class_index].tsets:
        targets |= monoid.live_by_dom[t]
    ok = set(targets)
    rev: dict[int, set[int]] = {}
    for v in range(len(monoid)):
        for j in monoid.successors(v):
            rev.setdefault(j, set()).add(v)
    work = list(targets)
    while work:
        v = work.pop()
        for p in rev.get(v, ()):
            if p not in ok:
                ok.add(p)
                work.append(p)
    if 0 not in ok:
        raise IllDefinedTransition("class is unreachable from the identity")
    counts = {0: 1}
    for _ in range(depth):
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            for a in range(len(alph)):
                j = monoid.step[v][a]
                if j is not None and j in ok:
                    nxt[j] = min(nxt.get(j, 0) + c, 2)
        counts = nxt
    total = min(sum(counts.values()), 2)
    if total != 1:
        raise IllDefinedTransition(
            f"bounded enumeration found {total} admissible prefixes at depth "
            f"{depth}, expected exactly 1"
        )


def condition_I(tw: Tower, level: Optional[int] = None) -> Verdict:
    """Holds iff every class contains at least two distinct points.

    Checked at the stabilized level: classes below stabilization are unions
    of stabilized classes and every class carries at least one point, so a
    one-point class at a coarser level is a one-point stable class, but a
    coarse class of two points can still split into one-point classes.  At
    a level below ``stabilized_at`` (an explicit ``level``, or the top built
    level of a tower that never stabilized within its budget) a singleton
    therefore FAILS exactly, and its absence is INCONCLUSIVE with that level
    as the bounded-search radius.  The points of all
    T-sets are counted together (clamped at 2) by one pass over the monoid
    graph.  A failure certificate names the class and its unique eventually
    periodic point, and is re-verified by an independent enumeration to
    depth 2 * monoid size.

    The status is a property of the shift.  The certificate's
    ``reverified_to_depth`` and the split of the point into ``prefix`` and
    ``period`` are properties of the presenting graph: two presentations of
    one shift can give different values.
    """
    if level is not None:
        lvl = level
    elif tw.stabilized_at is None:
        lvl = tw.top_level
    else:
        lvl = tw.stabilized_at
    tier = tw.level(lvl)
    counts = _point_counts(tw.monoid)
    witnesses = {}
    singleton = None
    for cls in tier.classes:
        total = 0
        wit = None
        for t in cls.tsets:
            cnt, w = counts[t]
            if cnt == 0:
                raise IllDefinedTransition(
                    "realized T-set carries no point; realizedness broke"
                )
            if cnt == 1:
                wit = w
            total = min(total + cnt, 2)
        witnesses[cls.index] = total
        if total == 1 and singleton is None:
            singleton = (cls.index, wit)
    if singleton is None:
        cert = {
            "level": lvl,
            "classes": [
                {"class": i, "points": ">=2"} for i in sorted(witnesses)
            ],
        }
        if tw.stabilized_at is None or lvl < tw.stabilized_at:
            return Verdict("I", INCONCLUSIVE, lvl, cert)
        return Verdict("I", HOLDS, None, cert)
    idx, (prefix, cycle) = singleton
    depth = 2 * len(tw.monoid)
    _reverify_unique_point(tw, lvl, idx, prefix, cycle, depth)
    alph = tw.graph.alphabet
    cert = {
        "level": lvl,
        "class": idx,
        "point": {
            "prefix": alph.format_word(prefix),
            "period": alph.format_word(cycle),
        },
        "reverified_to_depth": depth,
    }
    return Verdict("I", FAILS, None, cert)


# ---------------------------------------------------------------------------
# condition (*): infinite word classes are realized by points
# ---------------------------------------------------------------------------


def _infinite_word_domains(table: dict[int, tuple[int, ...]]) -> set[int]:
    """The states of the backward subset automaton ``table`` that infinitely
    many words share: those reachable from one of its cycles.  Trimming to
    the states that keep a predecessor inside the set leaves exactly them."""
    into: dict[int, set[int]] = {s: set() for s in table}
    for s, row in table.items():
        for p in row:
            if p:
                into[p].add(s)
    return _trim_to_live(set(table), into.__getitem__)


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
    realized = set(tw.tsets)
    blocks = [list(table)]
    fixpoint_level = 0
    while True:
        block = {s: i for i, members in enumerate(blocks) for s in members}
        finer = refine(table, block, table)
        if len(finer) == len(blocks):
            break
        blocks = finer
        fixpoint_level += 1

    matches = []
    failing = None
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
                f"members of class {cls[t]} at level {lvl} disagree on "
                "their predecessor classes"
            )
    succ = [set(rows[c]) - {-1} for c in range(len(rows))]
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
