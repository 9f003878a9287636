"""Exact integer linear algebra: invariant factors and group invariants.

The invariant factors are checked against their definition: d_1 ... d_k is
the gcd of all k x k minors, and the rank is the largest k with a nonzero
minor.  The minors come from test-local determinants.  The modular route
is checked against the elimination route, and against the minors where
n <= 5, on matrices whose entries are large enough to pass its gate.
"""

import random
import re
from enum import IntEnum
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftca import intlinalg
from shiftca.intlinalg import (
    _PRIME_BITS,
    _REDUCE_EVERY,
    MODULAR_MIN_BITS,
    AbelianGroup,
    IntMatrix,
    SmithForm,
    _eliminate,
    _modular_factors,
    _word_primes,
    cokernel,
    kernel,
    smith_form,
)


def cofactor_determinant(rows):
    """Independent determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def bareiss_determinant(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def determinantal_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """d_k = D_k / D_(k-1), where D_k is the gcd of all k x k minors; past
    the rank every minor vanishes.  The scan of the k x k minors stops once
    their gcd is 1, which keeps I - A with n = 24 cheap."""
    factors, prev = [], 1
    for k in range(1, min(m.shape) + 1):
        g = 0
        for ri in combinations(range(m.n_rows), k):
            for ci in combinations(range(m.n_cols), k):
                minor = [[m.rows[i][j] for j in ci] for i in ri]
                g = gcd(g, bareiss_determinant(minor))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def assert_matches_divisors(m: IntMatrix) -> None:
    want = determinantal_invariant_factors(m)
    f = smith_form(m)
    assert f == SmithForm(m.shape, want)
    rank = len(want)
    assert f.rank == rank
    torsion = tuple(x for x in want if x > 1)
    assert cokernel(m) == f.cokernel() == AbelianGroup(m.n_rows - rank, torsion)
    assert kernel(m) == f.kernel() == AbelianGroup(m.n_cols - rank)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    assert IntMatrix.from_rows([]).shape == (0, 0)
    assert IntMatrix.from_rows([], n_cols=3).shape == (0, 3)


def test_matrix_entries_are_ints_and_not_bools():
    class Small(IntEnum):
        ONE = 1

    assert IntMatrix(((Small.ONE, 2), (3, 4))).rows == ((1, 2), (3, 4))
    for bad in (True, 1.0, np.int64(1), "1"):
        message = re.escape(f"non-integer entry {bad!r}")
        with pytest.raises(ValueError, match=message):
            IntMatrix(((0, 1), (2, bad)))


def test_matrix_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    assert (a - b).to_lists() == [[1, 1], [2, 4]]
    assert a.transpose().to_lists() == [[1, 3], [2, 4]]
    assert a.submatrix([1], [0, 1]).to_lists() == [[3, 4]]
    assert IntMatrix.identity(2).to_lists() == [[1, 0], [0, 1]]


def test_matmul_shape_mismatch():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_smith_frozen_small_cases():
    # The golden-mean boundary matrix has trivial cokernel.
    f = smith_form(IntMatrix.from_rows([[-1, 0], [1, -1]]))
    assert f.invariant_factors == (1, 1)
    # A matrix with both free and torsion parts in its cokernel.
    f = smith_form(IntMatrix.from_rows([[2, 4], [4, 8]]))
    assert (f.invariant_factors, f.rank) == ((2,), 1)
    assert str(cokernel(IntMatrix.from_rows([[2, 4], [4, 8]]))) == "Z (+) Z/2"
    assert smith_form(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors == (1, 6)


def i_minus_a(rng, n):
    a = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
    return IntMatrix.from_rows(
        [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
    )


def test_invariant_factors_frozen():
    m = IntMatrix.from_rows(
        [[4, -6, 2, 0, 8], [6, 3, -9, 12, 0], [-2, 5, 7, 1, 3], [8, 0, 4, -4, 6]]
    )
    assert smith_form(m).invariant_factors == (1, 1, 2, 48)
    assert_matches_divisors(m)
    m = IntMatrix.from_rows([[6, 4, 10], [4, 8, 6], [10, 6, 4]])
    assert smith_form(m).invariant_factors == (2, 2, 102)
    assert_matches_divisors(m)
    # I - A for a seeded random 0-1 matrix with n = 24
    m = i_minus_a(random.Random(4242), 24)
    factors = smith_form(m).invariant_factors
    assert factors == (1,) * 23 + (7_326_492,)
    assert prod(factors) == abs(bareiss_determinant(m.rows))
    assert_matches_divisors(m)


def test_smith_form_matches_determinantal_divisors_on_seeded_matrices():
    rng = random.Random(90210)
    # the zero matrices include the 0 x c and r x 0 shapes
    batch = [
        IntMatrix.from_rows([[0] * c for _ in range(r)], c)
        for r in range(4) for c in range(4)
    ]
    for _ in range(300):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.random()
        rows = [
            [rng.randint(-20, 20) if rng.random() < density else 0 for _ in range(c)]
            for _ in range(r)
        ]
        # a zero row and a zero column in some of them
        if rng.random() < 0.3:
            rows[rng.randrange(r)] = [0] * c
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in rows:
                row[j] = 0
        batch.append(IntMatrix.from_rows(rows, c))
    batch.extend(i_minus_a(rng, n) for n in (5, 10, 20))
    for m in batch:
        assert_matches_divisors(m)


def test_cokernel_frozen_values():
    assert cokernel(IntMatrix.from_rows([[2]])) == AbelianGroup(0, (2,))
    assert cokernel(IntMatrix.from_rows([[-2]])) == AbelianGroup(0, (2,))
    assert cokernel(IntMatrix.from_rows([[1]])) == AbelianGroup(0)
    assert cokernel(IntMatrix.from_rows([[0]])) == AbelianGroup(1)
    assert cokernel(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])) == AbelianGroup(2)
    assert cokernel(IntMatrix.from_rows([[6, 0], [0, 10]])) == AbelianGroup(0, (2, 30))


def test_kernel_frozen_values():
    assert kernel(IntMatrix.from_rows([[1, 1]])) == AbelianGroup(1)
    assert kernel(IntMatrix.from_rows([[-1, 0], [1, -1]])) == AbelianGroup(0)
    assert kernel(IntMatrix.from_rows([[0]])) == AbelianGroup(1)


def test_group_rendering():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(3)) == "Z^3"
    assert str(AbelianGroup(0, (2,))) == "Z/2"
    assert str(AbelianGroup(1, (2, 4))) == "Z (+) Z/2 (+) Z/4"
    assert AbelianGroup(0).is_trivial
    assert not AbelianGroup(0, (2,)).is_trivial
    assert AbelianGroup(1, (3,)).to_json_dict() == {"rank": 1, "torsion": [3]}


def test_group_canonical_form_enforced():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))


def test_determinant_frozen_values():
    # |det| is the product of the invariant factors, and 0 below full rank
    for rows, det in (
        ([[5]], 5),
        ([[1, 2], [3, 4]], -2),
        (IntMatrix.identity(4).to_lists(), 1),
        ([[1, 2], [2, 4]], 0),
    ):
        assert bareiss_determinant(rows) == cofactor_determinant(rows) == det
        f = smith_form(IntMatrix.from_rows(rows))
        assert prod(f.invariant_factors) == abs(det) or f.rank < len(rows)


square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

rect_matrices = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=200, deadline=None)
@given(rect_matrices)
def test_smith_decomposition_properties(rows):
    # the elimination leaves a diagonal d: nonnegative entries, each dividing
    # the next, zeros last, and smith_form keeps its nonzero entries
    m = IntMatrix.from_rows(rows)
    d = _eliminate(m)
    assert [len(row) for row in d] == [m.n_cols] * m.n_rows
    assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
    diag = [d[i][i] for i in range(min(m.shape))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0
    assert smith_form(m).invariant_factors == tuple(x for x in diag if x)


@settings(max_examples=200, deadline=None)
@given(rect_matrices)
def test_smith_form_matches_determinantal_divisors(rows):
    assert_matches_divisors(IntMatrix.from_rows(rows))


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_determinant_matches_cofactor_expansion(rows):
    # the Bareiss determinant is the oracle's minor, so check it first
    assert bareiss_determinant(rows) == cofactor_determinant(rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_invariant_factors_multiply_to_determinant(rows):
    m = IntMatrix.from_rows(rows)
    det = cofactor_determinant(rows)
    f = smith_form(m)
    if det:
        assert prod(f.invariant_factors) == abs(det)
    else:
        assert f.rank < m.n_rows


# -- the modular route ---------------------------------------------------------

FIRST_PRIME = next(_word_primes())  # the first prime the modular route reduces by


def unimodular(rng, n, mag):
    """A seeded integer matrix of determinant 1: row additions applied to I."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-mag, mag)
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    return IntMatrix.from_rows(u)


def diagonal(entries):
    n = len(entries)
    return IntMatrix.from_rows(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def hadamard_bits(m):
    """Bits of the integer Hadamard bound sqrt(prod of squared row norms)."""
    return prod(sum(x * x for x in row) for row in m.rows).bit_length() // 2


def assert_modular_route(m):
    """The modular route runs on m and agrees with the elimination route."""
    got = _modular_factors(m)
    assert got is not None
    d = _eliminate(m)
    assert got == tuple(d[i][i] for i in range(m.n_rows))
    assert smith_form(m).invariant_factors == got
    return got


def test_modular_route_on_random_i_minus_a():
    rng = random.Random(1)
    second_last = []
    for n in (40, 55, 70, 90):
        f = assert_modular_route(i_minus_a(rng, n))
        second_last.append(f[-2])
    # cyclic cokernels (h = 1) and one with a second torsion factor
    assert second_last == [2, 1, 1, 2]


def known_factor_cases(n):
    """(U D V, the invariant factors of D) for seeded unimodular U and V."""
    rng = random.Random(70 + n)
    ones, p = [1] * n, FIRST_PRIME
    cases = [
        (ones, ()),                         # det = 1
        ([-1] + ones[1:], ()),              # det = -1
        (ones[2:] + [2, 6], (2, 6)),        # h = 2
        (ones[1:] + [p], (p,)),             # the first prime divides D
        (ones[2:] + [2, 2 * p], (2, 2 * p)),
        (ones[2:] + [p, p ** 2], (p, p ** 2)),
    ]
    for entries, torsion in cases:
        u, v = unimodular(rng, n, 10 ** 6), unimodular(rng, n, 10 ** 6)
        yield u @ diagonal(entries) @ v, (1,) * (n - len(torsion)) + torsion


@pytest.mark.parametrize("n", [2, 3, 4, 5, 20])
def test_modular_route_on_known_factors(n):
    for m, want in known_factor_cases(n):
        assert hadamard_bits(m) > MODULAR_MIN_BITS
        assert assert_modular_route(m) == want
        if n <= 5:
            assert determinantal_invariant_factors(m) == want


def test_delayed_reduction_stays_within_int64():
    # entries start below the prime and lose at most _REDUCE_EVERY products
    # of two residues before the next reduction of the whole block
    assert FIRST_PRIME < 1 << _PRIME_BITS
    largest = ((1 << _PRIME_BITS) - 1) ** 2
    assert _REDUCE_EVERY * largest + (1 << _PRIME_BITS) < 1 << 63


@pytest.mark.parametrize("every", [1, 3])
def test_periodic_reduction_keeps_the_factors(every, monkeypatch):
    # reducing the whole block every step or every third step runs the
    # periodic reduction of both the elimination and the back substitution
    monkeypatch.setattr(intlinalg, "_REDUCE_EVERY", every)
    rng = random.Random(1)
    for n in (40, 55, 70, 90):
        assert_modular_route(i_minus_a(rng, n))
    for n in (2, 5, 20):
        for m, want in known_factor_cases(n):
            assert assert_modular_route(m) == want


def test_modular_route_on_entries_beyond_64_bits():
    m = IntMatrix.from_rows([[2 ** 70 + 1, 3], [5, 2 ** 69]])
    assert assert_modular_route(m) == determinantal_invariant_factors(m)
    m = IntMatrix.from_rows(
        [[-(2 ** 90), 2 ** 64, 7], [12, 2 ** 65, -3], [1, 1, 2 ** 63]]
    )
    assert assert_modular_route(m) == determinantal_invariant_factors(m)


def test_singular_matrix_above_the_gate_falls_back():
    rng = random.Random(12)
    rows = i_minus_a(rng, 50).to_lists()
    rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
    m = IntMatrix.from_rows(rows)
    assert hadamard_bits(m) > MODULAR_MIN_BITS
    assert _modular_factors(m) is None
    d = _eliminate(m)
    factors = smith_form(m).invariant_factors
    assert factors == tuple(x for x in (d[i][i] for i in range(50)) if x)
    assert len(factors) == 49
    u, v = unimodular(rng, 4, 10 ** 6), unimodular(rng, 4, 10 ** 6)
    small = u @ diagonal([1, 3, 3, 0]) @ v
    assert hadamard_bits(small) > MODULAR_MIN_BITS
    assert _modular_factors(small) is None
    assert_matches_divisors(small)
