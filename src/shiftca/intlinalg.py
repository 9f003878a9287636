"""Exact integer linear algebra: Smith normal form, kernels, cokernels.

Everything here works over plain Python integers (arbitrary precision); no
floating point is ever involved.  The Smith routine is deterministic: the
pivot is always the entry of smallest nonzero absolute value in the working
submatrix, ties broken row-major, so identical inputs yield bit-identical
decompositions across runs and platforms.
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

    @staticmethod
    def zeros(r: int, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(0 for _ in range(c)) for _ in range(r)), c)

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

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.rows, other.rows)),
            self.n_cols,
        )

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

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def __str__(self) -> str:
        if not self.rows:
            return f"(0x{self.n_cols} matrix)"
        w = max((len(str(x)) for r in self.rows for x in r), default=1)
        return "\n".join(
            "[" + " ".join(str(x).rjust(w) for x in r) + "]" for r in self.rows
        )


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ m @ v == d with u, v unimodular and d diagonal, each diagonal
    entry nonnegative and dividing the next."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries, in divisibility order."""
        out = []
        for i in range(min(self.d.n_rows, self.d.n_cols)):
            x = self.d.rows[i][i]
            if x:
                out.append(x)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def cokernel(self) -> "AbelianGroup":
        """Z^rows / (column span of the decomposed matrix)."""
        torsion = tuple(x for x in self.invariant_factors if x > 1)
        return AbelianGroup(self.d.n_rows - self.rank, torsion)

    def kernel(self) -> "AbelianGroup":
        """Kernel of the decomposed matrix on column vectors; always free."""
        return AbelianGroup(self.d.n_cols - self.rank)


def _find_pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """Smallest |nonzero| entry in the submatrix d[t:][t:], ties row-major."""
    best = None
    best_abs = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            x = row[j]
            if x and (best_abs is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


def smith(m: IntMatrix) -> SmithDecomposition:
    """Deterministic Smith normal form over the integers.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> s = smith(m)
    >>> s.invariant_factors
    (2, 4)
    >>> (s.u @ m @ s.v).rows == s.d.rows
    True
    """
    r, c = m.shape
    d = [list(row) for row in m.rows]
    u = [list(row) for row in IntMatrix.identity(r).rows]
    v = [list(row) for row in IntMatrix.identity(c).rows]

    def swap_rows(i, k):
        if i != k:
            d[i], d[k] = d[k], d[i]
            u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        if j != k:
            for row in d:
                row[j], row[k] = row[k], row[j]
            for row in v:
                row[j], row[k] = row[k], row[j]

    def addmul_row(dst, src, q):
        # row dst += q * row src
        drow, srow = d[dst], d[src]
        for j in range(c):
            drow[j] += q * srow[j]
        du, su = u[dst], u[src]
        for j in range(r):
            du[j] += q * su[j]

    def addmul_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(r, c)):
        while True:
            piv = _find_pivot(d, t)
            if piv is None:
                break
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, r):
                if d[i][t]:
                    q = d[i][t] // p  # Euclidean: remainder in [0, p)
                    addmul_row(i, t, -q)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if d[t][j]:
                    q = d[t][j] // p
                    addmul_col(j, t, -q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                continue  # smaller entries appeared; re-pivot
            # clean cross: check divisibility of the remaining block
            offender = None
            for i in range(t + 1, r):
                row = d[i]
                for j in range(t + 1, c):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)  # pull the bad row up, keep reducing
        if piv is None:
            break

    return SmithDecomposition(
        IntMatrix.from_rows(u, r), IntMatrix.from_rows(d, c), IntMatrix.from_rows(v, c)
    )


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = m.n_rows
    if n != m.n_cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    return smith(m).cokernel()


def kernel(m: IntMatrix) -> AbelianGroup:
    """Kernel of m acting on column vectors; always free."""
    return smith(m).kernel()


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns spanning ker(m) (a primitive lattice basis): the columns of V
    whose image under m is the zero column of D."""
    s = smith(m)
    zero_cols = [
        j for j in range(m.n_cols)
        if j >= min(m.n_rows, m.n_cols) or s.d.rows[j][j] == 0
    ]
    return s.v.submatrix(range(m.n_cols), zero_cols)
