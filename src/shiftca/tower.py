"""The past-set refinement tower of a shift space.

Level l partitions the realized T-sets (equivalently, the points) by their
depth-l past sets; level l+1 refines level l.  Because a depth-(l+1) past is
determined by, per symbol a, whether a can be prepended and the depth-l class
of the predecessor set, the refinement runs as plain Moore partition
refinement over signatures

    sig(t) = (class_l(t), (class_l(Pre_a(t)) or "dead" : a in alphabet)).

:func:`refine` runs one round, for the tower and for ``condition_star``.
Past-word counts come from the same predecessor table ``Tower.pre``: N_k(t),
the number of past words of length exactly k, is the sum of N_{k-1}(Pre_a(t))
over the symbols a with Pre_a(t) nonempty, and N_0 = 1.

The partition stabilizes after finitely many rounds; the level at which it
first repeats is ``stabilized_at``.  Within a level, classes are sorted by
their past sets, each a shortlex-sorted word list, compared
lexicographically; this is the canonical order every matrix below uses.  No
list is built.  Two sorted lists first differ at u, the shortlex-least word
of their symmetric difference, and the side holding u sorts first — unless
the other side has no word after u (none lexicographically larger of length
|u|, none of any length up to the level), so that its list is a prefix of
the first and sorts first instead.  u is found on
:class:`~shiftca.pastsets.SubsetAutomaton`, the forward subset automaton
that also enumerates the relation checks' words: a table per length r of
the states from which some length-r word separates the two T-sets, the
least r whose table holds the start state, then a greedy descent to the
lexicographically least such word, whose end state says which side holds
it.  ``classes`` lists words by :func:`~shiftca.presentations.past_layers`.

The order work is shared across levels.  Per pair of representative
T-sets, |u|, the side holding u and whether the other side has a later
word of length |u| are found once: u is still the least separating word at
every deeper level, because shortlex puts shorter words first.  Only
whether the other side has a longer word depends on the level, and the
class flags answer it.  Each level is sorted from its parent's order
(parent index, then least member).  The comparator is a strict total
order, so the start does not change the result, only the number of
comparisons, close to m on a nearly sorted level.  A class's flags are its
parent's plus the one for length l, and only that one is checked across
its members.

Matrices (all exact integer, rows indexed by the finer level):

* ``matrix_I(tw, l)``  — 0-1 refinement matrix: entry (i, j) = 1 iff level-
  (l+1) class i is contained in level-l class j.
* ``matrix_A(tw, l, a)`` — symbol transition: entry (i, j) = 1 iff prepending
  a maps class i into class j (nonemptily); ``a=None`` sums over the alphabet.
* ``filtration_M(tw, l, k)`` — indices of classes owning a past word of
  length exactly k (k = 0 always qualifies via the empty word).
* ``matrix_B(tw, l)`` — I - sum_a A, columns restricted to M_1, all rows kept.

The filtration-restricted maps and the coordinate projections delta are
exposed for the commuting-diagram contracts; see the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Optional

from .errors import IllDefinedTransition, InputFormatError
from .intlinalg import IntMatrix
from .pastsets import (
    DEFAULT_MONOID_CAP,
    RelationMonoid,
    SubsetAutomaton,
    point_tsets,
    predecessor_table,
)
from .presentations import Graph, Presentation, to_labeled_graph

DEFAULT_MAX_LEVEL = 64


@dataclass(frozen=True)
class PastClass:
    """One equivalence class of a tower level."""

    index: int
    tsets: tuple[int, ...]  # member T-set bitmasks, ascending
    # entry k: some past word of length exactly k (N_k > 0)
    has_exact_past: tuple[bool, ...]


@dataclass(frozen=True)
class TowerLevel:
    level: int
    classes: tuple[PastClass, ...]
    parent: Optional[tuple[int, ...]]  # class index here -> class index one level down

    @property
    def m(self) -> int:
        """Number of classes at this level."""
        return len(self.classes)


class Tower:
    """Refinement tower over the realized T-sets of a labeled graph.

    The T-sets are read off ``pre``, the backward subset automaton.  Only
    the size of ``monoid``, the counted relation monoid, is read.

    Levels are built lazily; :func:`build_tower` constructs one and
    :meth:`ensure_level` deepens it in place (partitions beyond stabilization
    repeat, but pasts keep growing, so deeper levels are still materialized
    on demand for the filtration maps)."""

    def __init__(self, graph: Graph, monoid: RelationMonoid):
        self.graph = graph
        self.monoid = monoid
        # Pre_a of every state of the backward subset automaton, realized
        # T-sets among them
        self.pre = predecessor_table(graph)
        self.tsets: tuple[int, ...] = point_tsets(self.pre, graph.full_mask)
        self.automaton = SubsetAutomaton(graph)
        self.levels: list[TowerLevel] = []
        self.stabilized_at: Optional[int] = None
        self._class_maps: list[dict[int, int]] = []  # per level: tset -> class idx
        self._counts: list[dict[int, int]] = [dict.fromkeys(self.tsets, 1)]
        self._separations: dict[tuple[int, int], tuple[int, int, bool]] = {}
        self._append_level([list(self.tsets)])

    def past_counts(self, k: int) -> dict[int, int]:
        """N_k: realized T-set -> its number of past words of length exactly
        k.  Pre_{u·a}(t) = Pre_u(Pre_a t), and Pre_a of a realized T-set is
        realized or empty, so N_k follows from N_{k-1} on the realized
        T-sets alone; the table grows to k on demand."""
        if k < 0:
            raise InputFormatError(f"word length must be nonnegative, got {k}")
        counts = self._counts
        while len(counts) <= k:
            prev = counts[-1]
            counts.append(
                {t: sum(prev[p] for p in self.pre[t] if p) for t in self.tsets}
            )
        return counts[k]

    def count_words(self, tset: int, level: int) -> int:
        """|P_level(tset)|: the past words of ``tset`` of length <= level."""
        if level < 0:
            raise InputFormatError(f"level must be nonnegative, got {level}")
        return sum(self.past_counts(k)[tset] for k in range(level + 1))

    # -- construction ------------------------------------------------------

    def _append_level(self, blocks: list[list[int]]) -> None:
        level = len(self.levels)
        n_l = self.past_counts(level)
        below = self.levels[-1].classes if level > 0 else None
        placed = []
        for members in blocks:
            members = sorted(members)
            if below is None:
                up, flags = -1, ()
            else:
                parents = {self._class_maps[-1][t] for t in members}
                if len(parents) != 1:
                    raise IllDefinedTransition(
                        f"class at level {level} straddles parents {parents}"
                    )
                up = parents.pop()
                flags = below[up].has_exact_past
            # members agree on the lower flags, as members of one parent
            # class, so only the level-l flag is new
            new = n_l[members[0]] > 0
            if any((n_l[t] > 0) != new for t in members[1:]):
                raise IllDefinedTransition(
                    f"class members disagree on exact-length pasts at level {level}"
                )
            placed.append((up, members, flags + (new,)))
        # from the parent order, nearly sorted; the result does not depend
        # on the start (see the module docstring)
        placed.sort(key=lambda b: (b[0], b[1][0]))
        placed.sort(key=cmp_to_key(lambda x, y: self._compare_pasts(x, y, level)))
        classes = tuple(
            PastClass(idx, tuple(members), flags)
            for idx, (_, members, flags) in enumerate(placed)
        )
        parent = tuple(up for up, _, _ in placed) if level > 0 else None
        self.levels.append(TowerLevel(level, classes, parent))
        self._class_maps.append(
            {t: c.index for c in classes for t in c.tsets}
        )
        # level l refines level l - 1 (see refine), so an equal class count
        # means an equal partition
        if (
            self.stabilized_at is None
            and level > 0
            and len(classes) == self.levels[level - 1].m
        ):
            self.stabilized_at = level - 1

    def _compare_pasts(self, x, y, level: int) -> int:
        """-1 when class x's depth-``level`` past list sorts before y's; x
        and y are (parent index, sorted members, exact-length flags)."""
        rx, fx, ry, fy = x[1][0], x[2], y[1][0], y[2]
        length, holder, later = self._separation(rx, ry, level)
        x_holds = holder == rx
        # the holder of u sorts first, unless the other list stops before u
        other_goes_on = later or any((fy if x_holds else fx)[length + 1:])
        return -1 if x_holds == other_goes_on else 1

    def _separation(self, t1: int, t2: int, level: int) -> tuple[int, int, bool]:
        """For u, the shortlex-least word of length <= ``level`` in exactly
        one of the past sets of t1 and t2: |u|, the T-set whose past u is,
        and whether the other has a later past word of length |u|.  Cached
        per pair: u stays the least at every deeper level, because shortlex
        puts shorter words first."""
        key = (t1, t2) if t1 < t2 else (t2, t1)
        found = self._separations.get(key)
        if found is None:
            sep = self.automaton.separating_word(t1, t2, level)
            if sep is None:
                raise IllDefinedTransition(
                    f"two classes at level {level} have the same past set"
                )
            u, t1_holds = sep
            holder, other = (t1, t2) if t1_holds else (t2, t1)
            found = self._separations[key] = (
                len(u), holder, self.automaton.has_later_word(other, u)
            )
        return found

    def ensure_level(self, level: int) -> None:
        """Build levels up to ``level``; a negative one raises
        :class:`InputFormatError`."""
        if level < 0:
            raise InputFormatError(f"level must be nonnegative, got {level}")
        while len(self.levels) <= level:
            self._append_level(refine(self.tsets, self._class_maps[-1], self.pre))

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def level(self, l: int) -> TowerLevel:
        self.ensure_level(l)
        return self.levels[l]

    def m(self, l: int) -> int:
        return self.level(l).m

    def class_of(self, l: int, tset: int) -> int:
        self.ensure_level(l)
        return self._class_maps[l][tset]

    def summary(self) -> dict:
        return {
            "tsets": len(self.tsets),
            "monoid": len(self.monoid),
            "m": [lvl.m for lvl in self.levels],
            "stabilized_at": self.stabilized_at,
        }


def refine(
    states: Iterable[int], block: dict[int, int], table: dict[int, tuple[int, ...]]
) -> list[list[int]]:
    """One refinement round: ``states`` grouped by signature (block of s,
    then the block of each Pre_a(s) in ``table``, -1 when empty).  It starts
    with the old block, so equal counts mean equal partitions."""
    groups: dict[tuple, list[int]] = {}
    for s in states:
        sig = (block[s], *(-1 if p == 0 else block[p] for p in table[s]))
        groups.setdefault(sig, []).append(s)
    return list(groups.values())


def build_tower(
    source: Presentation | Graph,
    max_level: int = DEFAULT_MAX_LEVEL,
    monoid_cap: int = DEFAULT_MONOID_CAP,
) -> Tower:
    """Build the tower of a presentation, refining until the partition
    repeats (plus one confirming level) or ``max_level`` is hit.

    ``stabilized_at`` is None when the budget ran out first; levels
    0..min(stabilization+1, max_level) are materialized.  A negative
    ``max_level`` or a ``monoid_cap`` below 1 raises
    :class:`InputFormatError`.
    """
    if max_level < 0:
        raise InputFormatError(f"max_level must be nonnegative, got {max_level}")
    if monoid_cap < 1:
        raise InputFormatError(f"monoid_cap must be at least 1, got {monoid_cap}")
    g = source if isinstance(source, Graph) else to_labeled_graph(source)
    tw = Tower(g, RelationMonoid(g, monoid_cap))
    while tw.stabilized_at is None and tw.top_level < max_level:
        tw.ensure_level(tw.top_level + 1)
    return tw


# -- matrices ---------------------------------------------------------------


def matrix_I(tw: Tower, l: int) -> IntMatrix:
    """Refinement inclusion, shape m(l+1) x m(l)."""
    fine = tw.level(l + 1)
    coarse_m = tw.m(l)
    rows = []
    for c in fine.classes:
        row = [0] * coarse_m
        row[fine.parent[c.index]] = 1
        rows.append(tuple(row))
    return IntMatrix(tuple(rows), coarse_m)


def matrix_A(tw: Tower, l: int, symbol: Optional[int] = None) -> IntMatrix:
    """Symbol-transition matrix, shape m(l+1) x m(l).

    Entry (i, j) for symbol a is 1 when prepending a maps class i (level l+1)
    into class j (level l) and the image is nonempty.  ``symbol=None`` sums
    the per-symbol matrices.
    """
    fine = tw.level(l + 1)
    coarse_map = tw._class_maps[l]
    coarse_m = tw.m(l)
    symbols = (
        range(len(tw.graph.alphabet)) if symbol is None else (symbol,)
    )
    rows = []
    for c in fine.classes:
        row = [0] * coarse_m
        for a in symbols:
            pres = [tw.pre[t][a] for t in c.tsets]
            nonzero = [p for p in pres if p]
            if not nonzero:
                continue
            if len(nonzero) != len(pres):
                raise IllDefinedTransition(
                    f"symbol {a} is admissible for part of class {c.index} "
                    f"at level {l + 1}"
                )
            targets = {coarse_map[p] for p in nonzero}
            if len(targets) != 1:
                raise IllDefinedTransition(
                    f"symbol {a} maps class {c.index} across classes {targets}"
                )
            row[targets.pop()] += 1
        rows.append(tuple(row))
    return IntMatrix(tuple(rows), coarse_m)


def filtration_M(tw: Tower, l: int, k: int) -> tuple[int, ...]:
    """Class indices at level l owning a past word of length exactly k."""
    if k < 0 or k > l:
        raise InputFormatError(f"filtration needs 0 <= k <= l, got k={k}, l={l}")
    lvl = tw.level(l)
    return tuple(c.index for c in lvl.classes if c.has_exact_past[k])


def matrix_B(tw: Tower, l: int) -> IntMatrix:
    """(I - sum_a A) with columns restricted to M_1^l; all m(l+1) rows kept."""
    diff = matrix_I(tw, l) - matrix_A(tw, l)
    cols = filtration_M(tw, l, 1)
    return diff.submatrix(range(diff.n_rows), cols)


def filtration_map_I(tw: Tower, l: int, k: int) -> IntMatrix:
    """matrix_I restricted to rows M_k^{l+1}, columns M_k^l."""
    full = matrix_I(tw, l)
    return full.submatrix(filtration_M(tw, l + 1, k), filtration_M(tw, l, k))


def filtration_map_A(tw: Tower, l: int, k: int) -> IntMatrix:
    """matrix_A (summed) restricted to rows M_{k+1}^{l+1}, columns M_k^l."""
    full = matrix_A(tw, l)
    return full.submatrix(filtration_M(tw, l + 1, k + 1), filtration_M(tw, l, k))


def projection_delta(tw: Tower, l: int, k: int) -> IntMatrix:
    """Coordinate projection Z^{M_k^l} -> Z^{M_{k+1}^l}: identity on shared
    classes, zero elsewhere (requires k + 1 <= l)."""
    rows_idx = filtration_M(tw, l, k + 1)
    cols_idx = filtration_M(tw, l, k)
    rows = []
    for i in rows_idx:
        rows.append(tuple(1 if j == i else 0 for j in cols_idx))
    return IntMatrix(tuple(rows), len(cols_idx))


def stable_permutation(tw: Tower, l: int) -> IntMatrix:
    """At a stabilized level, matrix_I is a permutation matrix; return it
    (and assert it is one — one 1 per row and per column)."""
    p = matrix_I(tw, l)
    if p.n_rows != p.n_cols:
        raise IllDefinedTransition(f"level {l} is not stabilized: {p.shape}")
    for row in p.rows:
        if sum(row) != 1:
            raise IllDefinedTransition("refinement matrix row is not a unit vector")
    for j in range(p.n_cols):
        if sum(r[j] for r in p.rows) != 1:
            raise IllDefinedTransition("refinement matrix column is not a unit vector")
    return p
