"""Exact integer linear algebra: invariant factors, kernels, cokernels.

Every result is exact; no floating point is ever involved.  K0, K1 and the
Bowen-Franks group are the cokernel and kernel of an integer matrix, so they
need only its invariant factors (the nonzero diagonal of the Smith normal
form), never the unimodular matrices that reach it.  Invariant factors are
unique, so the two routes below give identical results.

- The elimination route works over plain Python integers: unimodular row
  and column operations whose pivot is always the entry of smallest nonzero
  absolute value in the working submatrix, ties broken row-major.  Its
  entries can grow to hundreds of bits on an 80 x 80 matrix.
- The modular route takes a nonsingular square matrix whose Hadamard bound
  exceeds ``MODULAR_MIN_BITS`` bits (Domich-Kannan-Trotter 1987;
  Abbott-Bronstein-Mulders 1999).  One batched numpy ``int64`` elimination
  of ``[M | B]``, with B a few fixed pseudo-random columns, modulo enough
  primes below 2^26 to cover the Hadamard bounds gives D = det M and
  Y = adj(M) B by Chinese remaindering.  A product of two residues stays
  below 2^52, so the elimination reduces an entry only when it reads it,
  and the whole block once per 2^10 steps.  h = gcd(D, Y) is a multiple of
  s_1 ... s_(n-1), the product of all invariant factors but the last, so
  s_i = gcd(d_i, h) for i < n, where d is the elimination of M with every
  entry kept reduced modulo h, and s_n = |D| / (s_1 ... s_(n-1)).  When
  h = 1 that elimination is skipped.  A singular matrix, found when more
  primes divide D than a nonzero |D| below the bound could have, takes the
  elimination route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, islice
from math import gcd, prod
from typing import Iterator, Sequence

import numpy as np

#: Square matrices whose Hadamard bound has more bits than this take the
#: modular route.  On random I - A the two routes break even near 64 bits
#: (n = 32), at about 1.7 ms each on 2 vCPUs.
MODULAR_MIN_BITS = 64
# columns of the random projection B; more columns make h = s_1 ... s_(n-1)
# likelier, fewer make Y cheaper
_PROJECTION_COLS = 4
_PRIME_BITS = 26
# the elimination subtracts products of two entries below 2^_PRIME_BITS
# unreduced; this many of them stay within int64
_REDUCE_EVERY = (1 << 62) >> (2 * _PRIME_BITS)


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
        # one C-level pass over the types; the loop only names the entry
        # (int subclasses other than bool are accepted)
        if set(map(type, chain.from_iterable(self.rows))) - {int}:
            for x in chain.from_iterable(self.rows):
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


def _addmul_rows(
    rows: list[list[int]], src: list[int], qs: list[int], modulus: int
) -> None:
    """rows[k] += qs[k] * src, over the nonzero entries of src (then reduced
    modulo ``modulus`` unless it is 0)."""
    nonzero = [(j, x) for j, x in enumerate(src) if x]
    for row, q in zip(rows, qs):
        for j, x in nonzero:
            row[j] += q * x
        if modulus:
            for j, _ in nonzero:
                row[j] %= modulus


def _addmul_cols(
    rows: list[list[int]], t: int, cols: list[int], qs: list[int], modulus: int
) -> None:
    """Column cols[k] += qs[k] * column t, in the rows where column t is
    nonzero (then reduced modulo ``modulus`` unless it is 0)."""
    for row in rows:
        x = row[t]
        if x:
            for j, q in zip(cols, qs):
                row[j] += q * x
            if modulus:
                for j in cols:
                    row[j] %= modulus


def _eliminate(m: IntMatrix, modulus: int = 0) -> list[list[int]]:
    """The Smith normal form d of m, by unimodular row and column operations
    on a copy of m; the operations themselves are not recorded.

    Before step t, rows and columns < t are diagonal already, so every
    operation stays inside the active block (rows and columns >= t).

    With a positive ``modulus`` h every entry is kept reduced modulo h, so
    d is a Smith form of m over Z/h: gcd(d_i, h) = gcd(s_i, h) for the
    invariant factors s_i of m.  Entries stay in [0, h), and each re-pivot
    still finds a smaller pivot, so the loop ends.
    """
    r, c = m.shape
    d = [[x % modulus for x in row] if modulus else list(row) for row in m.rows]
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
            _addmul_rows([d[i] for i in rows], prow, qs, modulus)
            cols = [j for j in range(t + 1, c) if prow[j]]
            qs = [-(prow[j] // p) for j in cols]
            _addmul_cols(d[t:], t, cols, qs, modulus)
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
            _addmul_rows([prow], d[offender], [1], modulus)
        if piv is None:
            break
    return d


def _is_word_prime(q: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic for q < 3.2 * 10^9."""
    d, s = q - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _word_primes() -> Iterator[int]:
    """The primes below 2^26, largest first.  Callers take a few dozen
    of the 1.9 * 10^6 that exceed 2^25, so every prime they see does."""
    q = (1 << _PRIME_BITS) - 1
    while True:
        if _is_word_prime(q):
            yield q
        q -= 2


def _det_and_projection(
    w: np.ndarray, n: int, primes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """det M and adj(M) B modulo each prime, for w = [M | B] with n rows.

    One Gaussian elimination per prime, batched along the first axis; the
    pivot is the first nonzero entry of the column.  Entries are reduced
    only where a step reads them: column t before its pivot search, row t
    before it is scaled and x_i before it is used.  Each update in between
    subtracts a product of two reduced entries, below 2^(2 * _PRIME_BITS),
    so the whole block is reduced every ``_REDUCE_EVERY`` steps.  Returns
    the determinants (k,) and the projections (k, n, cols); a prime that
    divides det M has determinant 0 and a meaningless projection.
    """
    p = np.array(primes, dtype=np.int64)
    p2, p3 = p[:, None], p[:, None, None]
    w = (w[None] % np.array(primes, dtype=w.dtype)[:, None, None]).astype(np.int64)
    batch = np.arange(len(primes))
    det = np.ones(len(primes), dtype=np.int64)
    for t in range(n):
        w[:, t:, t] %= p2
        offset = (w[:, t:, t] != 0).argmax(axis=1)
        piv = w[batch, t + offset, t]
        if offset.any():
            top = w[batch, t].copy()
            w[batch, t] = w[batch, t + offset]
            w[batch, t + offset] = top
            det = np.where(offset != 0, p - det, det)
        det = det * piv % p
        piv[piv == 0] = 1  # the prime divides det M; 0 has no inverse
        inv = np.array([pow(x, -1, q) for x, q in zip(piv.tolist(), primes)],
                       dtype=np.int64)
        # row t scaled to a unit pivot; rows below lose their column t entry
        w[:, t, t + 1:] = w[:, t, t + 1:] % p2 * inv[:, None] % p2
        w[:, t + 1:, t + 1:] -= w[:, t + 1:, t, None] * w[:, t, None, t + 1:]
        if (t + 1) % _REDUCE_EVERY == 0:
            w[:, t + 1:, t + 1:] %= p3
    # back substitution on the unit upper triangle: x = M^-1 B, then D x
    x = w[:, :, n:]
    for i in range(n - 1, 0, -1):
        x[:, i] %= p2
        x[:, :i] -= w[:, :i, i, None] * x[:, i, None, :]
        if (n - i) % _REDUCE_EVERY == 0:
            x[:, :i] %= p3
    return det, x % p3 * det[:, None, None] % p3


def _crt(residues: Sequence[int], coeffs: Sequence[int], modulus: int) -> int:
    """The integer in (-modulus/2, modulus/2] with the given residues."""
    x = sum(r * c for r, c in zip(residues, coeffs)) % modulus
    return x - modulus if 2 * x > modulus else x


def _modular_factors(m: IntMatrix) -> tuple[int, ...] | None:
    """Invariant factors of a square m by the modular route, or None when m
    is at or below the gate or singular (the module docstring has the
    method)."""
    n = m.n_rows
    row_sq = [sum(x * x for x in row) for row in m.rows]
    col_sq = [sum(x * x for x in col) for col in zip(*m.rows)]
    # |det M|^2 is at most either product (Hadamard); a zero row or column
    # makes it 0, below the gate
    det_sq = min(prod(row_sq), prod(col_sq))
    if det_sq <= 1 << (2 * MODULAR_MIN_BITS):
        return None
    rng = random.Random(n)
    b = [[rng.randrange(1 << 16) for _ in range(_PROJECTION_COLS)] for _ in range(n)]
    # Y_ij = det of M with column i replaced by column j of B (Cramer)
    b_sq = max(sum(row[j] ** 2 for row in b) for j in range(_PROJECTION_COLS))
    y_sq = -(-prod(col_sq) * b_sq // min(col_sq))
    limit = 4 * max(det_sq, y_sq)  # the modulus must exceed twice either bound
    # distinct primes above 2^25 dividing a nonzero |D| < 2^e: at most e // 25
    zero_cap = (det_sq.bit_length() + 1) // 2 // (_PRIME_BITS - 1)
    rows = [list(row) + bs for row, bs in zip(m.rows, b)]
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:  # entries beyond 64 bits are reduced as Python ints
        a = np.array(rows, dtype=object)
    primes = _word_primes()
    kept: list[int] = []
    dets: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    modulus, zeros = 1, 0
    while modulus * modulus <= limit:
        # each prime, above 2^25.5, adds at least 51 bits to modulus^2
        short = limit.bit_length() + 1 - (modulus * modulus).bit_length()
        batch = list(islice(primes, -(-short // (2 * _PRIME_BITS - 1))))
        det, y = _det_and_projection(a, n, batch)
        live = det != 0
        zeros += len(batch) - int(live.sum())
        if zeros > zero_cap:
            return None
        kept += [q for q, ok in zip(batch, live.tolist()) if ok]
        dets.append(det[live])
        ys.append(y[live].reshape(-1, n * _PROJECTION_COLS))
        modulus = prod(kept)
    coeffs = [modulus // q * pow(modulus // q, -1, q) for q in kept]
    big_d = abs(_crt(np.concatenate(dets).tolist(), coeffs, modulus))
    # h = gcd(D, Y), one projected cofactor sum at a time; usually 1 soon
    h = big_d
    for residues in np.concatenate(ys).T.tolist():
        h = gcd(h, _crt(residues, coeffs, modulus))
        if h == 1:
            return (1,) * (n - 1) + (big_d,)
    d = _eliminate(m, modulus=h)
    head = [gcd(d[i][i], h) for i in range(n - 1)]
    return tuple(head) + (big_d // prod(head),)


def smith_form(m: IntMatrix) -> SmithForm:
    """Invariant factors of m.

    >>> smith_form(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors
    (2, 4)
    """
    if m.n_rows == m.n_cols:
        factors = _modular_factors(m)
        if factors is not None:
            return SmithForm(m.shape, factors)
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
