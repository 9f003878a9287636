"""K-theoretic invariants computed from the stabilized tower.

``k_groups``
    K0 = cokernel and K1 = kernel of the stabilized boundary matrix
    B = (I - sum_a A) restricted to classes with length-1 pasts, with rows
    re-indexed through the (permutation) refinement matrix so domain and
    codomain share one class basis.
``dimension_group``
    the stationary inductive systems (Z^{M_k}, A_k) with their coordinate
    projections delta_k, staged for k = 0..k_max.
``bowen_franks``
    cokernel of (I - A) for matrix presentations.
``ck_oracle``
    independent cross-check for matrix presentations: collapse symbols with
    equal matrix columns (dropping all-zero columns), then take cokernel and
    kernel of I - collapsed^T.  Agrees with ``k_groups`` whenever the
    collapsed matrix is primitive; iterated zero-column degeneracies are the
    known exception (kept as a frozen counterexample in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InputFormatError, NotStabilized, TowerTooShallow, WrongKind
from .intlinalg import AbelianGroup, IntMatrix, cokernel, smith_form
from .presentations import Presentation
from .tower import (
    Tower,
    filtration_M,
    matrix_A,
    matrix_B,
    matrix_I,
    projection_delta,
    stable_permutation,
)


@dataclass(frozen=True)
class KGroupsReport:
    k0: AbelianGroup
    k1: AbelianGroup
    exact: bool
    level: int

    def to_json_dict(self) -> dict:
        return {
            "k0": self.k0.to_json_dict(),
            "k1": self.k1.to_json_dict(),
            "exact": self.exact,
            "level": self.level,
        }


def _stable_B(tw: Tower, l: int) -> IntMatrix:
    """B at a stabilized level, rows pulled back through the refinement
    permutation so both indices live over the level-l classes."""
    return stable_permutation(tw, l).transpose() @ matrix_B(tw, l)


def k_groups(tw: Tower, allow_partial: bool = False) -> KGroupsReport:
    """K0/K1 of the shift from its stabilized tower.

    When the tower failed to stabilize within its level budget, the result is
    only available as an approximation at the level below the top, whose B
    reads the top level; that requires ``allow_partial=True`` and comes back
    flagged ``exact=False``.  B needs M_1, so a tower of fewer than three
    levels has no approximation and raises :class:`TowerTooShallow`: no
    level past the budget is built.
    """
    if tw.stabilized_at is None:
        if not allow_partial:
            raise TowerTooShallow(
                f"not stabilized within {tw.top_level} levels; "
                "rerun with a larger level budget or allow_partial"
            )
        if tw.top_level < 2:
            raise TowerTooShallow(
                f"not stabilized within {tw.top_level} levels, and an "
                "approximation needs 2; rerun with a larger level budget"
            )
        l = tw.top_level - 1
        s = smith_form(matrix_B(tw, l))
        return KGroupsReport(s.cokernel(), s.kernel(), exact=False, level=l)
    l = max(tw.stabilized_at, 1)  # B needs M_1, which needs level >= 1
    s = smith_form(_stable_B(tw, l))
    return KGroupsReport(s.cokernel(), s.kernel(), exact=True, level=l)


@dataclass(frozen=True)
class StationarySystem:
    """One stage of the dimension-group tower: Z^rank --map--> Z^rank_next,
    iterated; ``delta`` projects this stage onto the next filtration."""

    k: int
    level: int
    classes: tuple[int, ...]       # class indices forming M_k at `level`
    classes_next: tuple[int, ...]  # M_{k+1} at `level`
    map: IntMatrix                 # |M_{k+1}| x |M_k|, stabilized basis
    delta: IntMatrix               # |M_{k+1}| x |M_k| coordinate projection

    @property
    def rank(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class DimensionGroupReport:
    systems: tuple[StationarySystem, ...]

    def to_json_dict(self) -> dict:
        return {
            "systems": [
                {
                    "k": s.k,
                    "level": s.level,
                    "rank": s.rank,
                    "map": s.map.to_lists(),
                    "delta": s.delta.to_lists(),
                }
                for s in self.systems
            ]
        }


def dimension_group(tw: Tower, k_max: int = 3) -> DimensionGroupReport:
    """Stationary inductive systems (Z^{M_k}, A_k, delta_k) for k <= k_max.

    Stage k is evaluated at level max(stabilized, k+1) — the first stabilized
    level deep enough for length-(k+1) pasts to be class invariants — and the
    connecting map's rows are pulled back through the refinement permutation
    so that iterating the map makes sense over a fixed basis.  A negative
    ``k_max`` raises :class:`InputFormatError`.
    """
    if k_max < 0:
        raise InputFormatError(f"k_max must be nonnegative, got {k_max}")
    if tw.stabilized_at is None:
        raise NotStabilized(
            f"tower not stabilized within {tw.top_level} levels"
        )
    systems = []
    for k in range(k_max + 1):
        l = max(tw.stabilized_at, k + 1, 1)
        tw.ensure_level(l + 1)
        m_k = filtration_M(tw, l, k)
        m_k1 = filtration_M(tw, l, k + 1)
        m_k1_up = filtration_M(tw, l + 1, k + 1)
        a = matrix_A(tw, l).submatrix(m_k1_up, m_k)
        # pull rows from level l+1 back to level l through the permutation
        parent = tw.level(l + 1).parent
        row_of = {parent[i]: pos for pos, i in enumerate(m_k1_up)}
        rows = tuple(a.rows[row_of[j]] for j in m_k1)
        amap = IntMatrix(rows, a.n_cols)
        delta = projection_delta(tw, l, k)
        systems.append(
            StationarySystem(k, l, m_k, m_k1, amap, delta)
        )
    return DimensionGroupReport(tuple(systems))


@dataclass(frozen=True)
class BowenFranksReport:
    group: AbelianGroup
    matrix: IntMatrix  # I - A

    def to_json_dict(self) -> dict:
        return {"group": self.group.to_json_dict(), "i_minus_a": self.matrix.to_lists()}


def bowen_franks(p: Presentation) -> BowenFranksReport:
    """coker(I - A) for a matrix presentation (flow-equivalence invariant).

    >>> str(bowen_franks(Presentation.sft(('0','1'), ((1,1),(1,0)))).group)
    '0'
    """
    if p.kind != "sft":
        raise WrongKind("bowen_franks needs a matrix (sft) presentation")
    n = len(p.alphabet)
    ima = IntMatrix.from_rows(
        [
            [(1 if i == j else 0) - p.matrix[i][j] for j in range(n)]
            for i in range(n)
        ]
    )
    return BowenFranksReport(cokernel(ima), ima)


@dataclass(frozen=True)
class CkOracleReport:
    k0: AbelianGroup
    k1: AbelianGroup
    collapsed: IntMatrix                    # the column-collapsed matrix
    symbol_classes: tuple[tuple[str, ...], ...]
    primitive: bool

    def to_json_dict(self) -> dict:
        return {
            "k0": self.k0.to_json_dict(),
            "k1": self.k1.to_json_dict(),
            "collapsed": self.collapsed.to_lists(),
            "symbol_classes": [list(c) for c in self.symbol_classes],
            "primitive": self.primitive,
        }


def _is_primitive(m: IntMatrix) -> bool:
    """Some power of m is entrywise positive.

    For a nonnegative matrix this holds iff the graph of its positive entries
    is strongly connected and aperiodic: with BFS levels from vertex 0, the
    gcd of level(u) + 1 - level(v) over all edges u -> v is the period.
    """
    n = m.n_rows
    if n == 0:
        return False
    succ = [[j for j, x in enumerate(row) if x > 0] for row in m.rows]
    pred = [[i for i, x in enumerate(col) if x > 0] for col in zip(*m.rows)]
    level = _bfs_levels(succ)
    if len(level) < n or len(_bfs_levels(pred)) < n:
        return False
    period = 0
    for i, out in enumerate(succ):
        for j in out:
            period = math.gcd(period, level[i] + 1 - level[j])
    return period == 1


def _bfs_levels(adj: list[list[int]]) -> dict[int, int]:
    """Distance from vertex 0 of every vertex reachable from it."""
    level = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if j not in level:
                    level[j] = level[i] + 1
                    nxt.append(j)
        frontier = nxt
    return level


def ck_oracle(p: Presentation) -> CkOracleReport:
    """Independent K-group computation for matrix presentations.

    Symbols with equal matrix COLUMNS admit exactly the same pasts, so they
    are merged; symbols whose column is zero never follow anything and are
    dropped (mirroring the graph construction, which never emits them as
    labels).  With J, I ranging over the kept classes and s_I a representative
    of I, the collapsed matrix is

        C(J, I) = sum_{a in J} A(a, s_I),

    well-defined because equal columns force A(a, s) = A(a, s') for all a.
    K0 = coker(I - C^T) and K1 = ker(I - C^T).
    """
    if p.kind != "sft":
        raise WrongKind("ck_oracle needs a matrix (sft) presentation")
    n = len(p.alphabet)
    cols: dict[tuple[int, ...], list[int]] = {}
    for j in range(n):
        col = tuple(p.matrix[i][j] for i in range(n))
        cols.setdefault(col, []).append(j)
    kept = sorted(
        (members for col, members in cols.items() if any(col)),
        key=lambda ms: ms[0],
    )
    reps = [ms[0] for ms in kept]
    c = IntMatrix.from_rows(
        [
            [sum(p.matrix[a][rep] for a in members) for rep in reps]
            for members in kept
        ]
    )
    imct = IntMatrix.identity(len(kept)) - c.transpose()
    names = tuple(tuple(p.alphabet.symbols[a] for a in ms) for ms in kept)
    s = smith_form(imct)
    return CkOracleReport(
        s.cokernel(), s.kernel(), c, names, _is_primitive(c)
    )
