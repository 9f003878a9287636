"""The past-set refinement tower of a shift space.

Level l partitions the realized T-sets (equivalently, the points) by their
depth-l past sets; level l+1 refines level l.  Because a depth-(l+1) past is
determined by, per symbol a, whether a can be prepended and the depth-l class
of the predecessor set, the refinement runs as plain Moore partition
refinement over signatures

    sig(t) = (class_l(t), (class_l(Pre_a(t)) or "dead" : a in alphabet)).

The partition stabilizes after finitely many rounds; the level at which it
first repeats is ``stabilized_at``.  Within a level, classes are sorted by
their encoded past sets (shortlex words, lexicographic word lists), which is
the canonical order every matrix below uses.

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
from typing import Optional, Sequence

from .errors import IllDefinedTransition, InputFormatError
from .intlinalg import IntMatrix
from .pastsets import (
    DEFAULT_MONOID_CAP,
    MonoidGraph,
    PastSet,
    PastSetCalculator,
    realized_tsets,
)
from .presentations import Graph, Presentation, to_labeled_graph

DEFAULT_MAX_LEVEL = 64


@dataclass(frozen=True)
class PastClass:
    """One equivalence class of a tower level."""

    index: int
    tsets: tuple[int, ...]  # member T-set bitmasks, ascending
    past: PastSet
    has_exact_past: tuple[bool, ...]  # entry k: some past word of length exactly k

    @property
    def size(self) -> int:
        return len(self.tsets)


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

    Levels are built lazily; :func:`build_tower` constructs one and
    :meth:`ensure_level` deepens it in place (partitions beyond stabilization
    repeat, but pasts keep growing, so deeper levels are still materialized
    on demand for the filtration maps)."""

    def __init__(self, graph: Graph, monoid: MonoidGraph):
        self.graph = graph
        self.monoid = monoid
        self.tsets: tuple[int, ...] = realized_tsets(monoid)
        self.calc = PastSetCalculator(graph)
        self.levels: list[TowerLevel] = []
        self.stabilized_at: Optional[int] = None
        self._class_maps: list[dict[int, int]] = []  # per level: tset -> class idx
        self._blocks: list[frozenset[frozenset[int]]] = []
        self._append_level(self._initial_partition())

    # -- construction ------------------------------------------------------

    def _initial_partition(self) -> list[list[int]]:
        return [list(self.tsets)]

    def _append_level(self, blocks: list[list[int]]) -> None:
        level = len(self.levels)
        alph = self.graph.alphabet
        decorated = []
        for members in blocks:
            past = self.calc.past_set(members[0], level)
            decorated.append((past.encode(alph), sorted(members), past))
        decorated.sort(key=lambda x: (x[0], x[1]))
        classes = []
        parent: Optional[list[int]] = [] if level > 0 else None
        for idx, (_, members, past) in enumerate(decorated):
            flags = tuple(
                self.calc.has_exact_length_word(members[0], k)
                for k in range(level + 1)
            )
            # members of one class agree on every flag up to the level
            for t in members[1:]:
                other = tuple(
                    self.calc.has_exact_length_word(t, k) for k in range(level + 1)
                )
                if other != flags:
                    raise IllDefinedTransition(
                        f"class members disagree on exact-length pasts at level {level}"
                    )
            classes.append(PastClass(idx, tuple(members), past, flags))
            if parent is not None:
                parents = {self._class_maps[level - 1][t] for t in members}
                if len(parents) != 1:
                    raise IllDefinedTransition(
                        f"class at level {level} straddles parents {parents}"
                    )
                parent.append(parents.pop())
        self.levels.append(
            TowerLevel(level, tuple(classes), tuple(parent) if parent else None)
        )
        self._class_maps.append(
            {t: c.index for c in classes for t in c.tsets}
        )
        self._blocks.append(frozenset(frozenset(c.tsets) for c in classes))
        if (
            self.stabilized_at is None
            and level > 0
            and self._blocks[level] == self._blocks[level - 1]
        ):
            self.stabilized_at = level - 1

    def _refine_once(self) -> list[list[int]]:
        cmap = self._class_maps[-1]
        n_sym = len(self.graph.alphabet)
        groups: dict[tuple, list[int]] = {}
        for t in self.tsets:
            sig = [cmap[t]]
            for a in range(n_sym):
                p = self.calc.pre(t, a)
                sig.append(-1 if p == 0 else cmap[p])
            groups.setdefault(tuple(sig), []).append(t)
        return list(groups.values())

    def ensure_level(self, level: int) -> None:
        while len(self.levels) <= level:
            self._append_level(self._refine_once())

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


def build_tower(
    source: Presentation | Graph,
    max_level: int = DEFAULT_MAX_LEVEL,
    monoid_cap: int = DEFAULT_MONOID_CAP,
) -> Tower:
    """Build the tower of a presentation, refining until the partition
    repeats (plus one confirming level) or ``max_level`` is hit.

    ``stabilized_at`` is None when the budget ran out first; levels
    0..min(stabilization+1, max_level) are materialized.
    """
    g = source if isinstance(source, Graph) else to_labeled_graph(source)
    tw = Tower(g, MonoidGraph(g, monoid_cap))
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
            pres = [tw.calc.pre(t, a) for t in c.tsets]
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
