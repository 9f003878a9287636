"""Exact integer linear algebra: invariant factors, kernels, cokernels.

Everything here works over plain Python integers (arbitrary precision); no
floating point is ever involved.  K0, K1 and the Bowen-Franks group are the
cokernel and kernel of an integer matrix, so they need only its invariant
factors (the nonzero diagonal of the Smith normal form), never the
unimodular matrices that reach it.  One deterministic elimination
computes them: the pivot is always the entry of smallest nonzero absolute
value in the working submatrix, ties broken row-major, so identical inputs
yield bit-identical results across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix.  ``rows`` may be empty (0 x c) and rows may
    be empty tuples (r x 0); both occur naturally as filtration corners."""

    rows: tuple[tuple[int, ...], ...]
    n_cols_hint: int = -1  # disambiguates r x 0 vs r x c when r == 0

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")
        for r in self.rows:
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"non-integer entry {x!r}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], n_cols: int = -1) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows), n_cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        ))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        if self.rows:
            return len(self.rows[0])
        return max(self.n_cols_hint, 0)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ocols = other.n_cols
        out = []
        for row in self.rows:
            acc = [0] * ocols
            for k, x in enumerate(row):
                if x:
                    orow = other.rows[k]
                    for j in range(ocols):
                        acc[j] += x * orow[j]
            out.append(tuple(acc))
        return IntMatrix(tuple(out), ocols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return IntMatrix(
            tuple(tuple(a - b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.rows, other.rows)),
            self.n_cols,
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(r[j] for r in self.rows) for j in range(self.n_cols)),
            self.n_rows,
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx),
            len(col_idx),
        )

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors of an integer matrix of the given shape: the
    nonzero diagonal entries of its Smith normal form, each dividing the
    next."""

    shape: tuple[int, int]
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def cokernel(self) -> "AbelianGroup":
        """Z^rows / (column span of the matrix)."""
        torsion = tuple(x for x in self.invariant_factors if x > 1)
        return AbelianGroup(self.shape[0] - self.rank, torsion)

    def kernel(self) -> "AbelianGroup":
        """Kernel of the matrix on column vectors; always free."""
        return AbelianGroup(self.shape[1] - self.rank)


def _find_pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """Smallest |nonzero| entry in the submatrix d[t:][t:], ties row-major."""
    best = None
    best_abs = 0
    for i in range(t, len(d)):
        sizes = [abs(x) for x in d[i][t:]]
        x = min(filter(None, sizes), default=0)
        if x and (not best_abs or x < best_abs):
            best, best_abs = (i, t + sizes.index(x)), x
            if x == 1:
                break
    return best


def _addmul_rows(rows: list[list[int]], src: list[int], qs: list[int]) -> None:
    """rows[k] += qs[k] * src, over the nonzero entries of src."""
    nonzero = [(j, x) for j, x in enumerate(src) if x]
    for row, q in zip(rows, qs):
        for j, x in nonzero:
            row[j] += q * x


def _addmul_cols(rows: list[list[int]], t: int, cols: list[int], qs: list[int]) -> None:
    """Column cols[k] += qs[k] * column t, in the rows where column t is nonzero."""
    for row in rows:
        x = row[t]
        if x:
            for j, q in zip(cols, qs):
                row[j] += q * x


def _eliminate(m: IntMatrix) -> list[list[int]]:
    """The Smith normal form d of m, by unimodular row and column operations
    on a copy of m; the operations themselves are not recorded.

    Before step t, rows and columns < t are diagonal already, so every
    operation stays inside the active block (rows and columns >= t).
    """
    r, c = m.shape
    d = [list(row) for row in m.rows]
    for t in range(min(r, c)):
        while True:
            piv = _find_pivot(d, t)
            if piv is None:
                break
            i, j = piv
            if i != t:
                d[t], d[i] = d[i], d[t]
            if j != t:
                for row in d[t:]:
                    row[t], row[j] = row[j], row[t]
            prow = d[t]
            if prow[t] < 0:
                prow[t:] = [-x for x in prow[t:]]
            p = prow[t]
            # Euclidean steps down column t and along row t: remainders in [0, p)
            rows = [i for i in range(t + 1, r) if d[i][t]]
            qs = [-(d[i][t] // p) for i in rows]
            _addmul_rows([d[i] for i in rows], prow, qs)
            cols = [j for j in range(t + 1, c) if prow[j]]
            qs = [-(prow[j] // p) for j in cols]
            _addmul_cols(d[t:], t, cols, qs)
            if any(d[i][t] for i in rows) or any(prow[j] for j in cols):
                continue  # smaller entries appeared; re-pivot
            # clean cross: check divisibility of the remaining block
            if p == 1:
                break
            offender = next(
                (i for i in range(t + 1, r) if any(x % p for x in d[i][t + 1:])),
                None,
            )
            if offender is None:
                break
            # pull the bad row up, keep reducing
            _addmul_rows([prow], d[offender], [1])
        if piv is None:
            break
    return d


def smith_form(m: IntMatrix) -> SmithForm:
    """Invariant factors of m.

    >>> smith_form(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors
    (2, 4)
    """
    d = _eliminate(m)
    diag = (row[i] for i, row in enumerate(d) if i < len(row))
    return SmithForm(m.shape, tuple(x for x in diag if x))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in canonical form:
    Z^free_rank + Z/t_1 + ... + Z/t_k with 2 <= t_1 | t_2 | ... | t_k."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for x in self.torsion:
            if x < 2:
                raise ValueError(f"torsion factor {x} < 2 (canonical form)")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion chain broken: {a} does not divide {b}")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Z^rows / (column span of m), from the invariant factors.

    >>> cokernel(IntMatrix.from_rows([[-1]]))
    AbelianGroup(free_rank=0, torsion=())
    >>> str(cokernel(IntMatrix.from_rows([[2]])))
    'Z/2'
    """
    return smith_form(m).cokernel()


def kernel(m: IntMatrix) -> AbelianGroup:
    """Kernel of m acting on column vectors; always free."""
    return smith_form(m).kernel()
