"""Exact integer linear algebra: Smith normal form and group invariants."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftca.intlinalg import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    determinant,
    kernel,
    kernel_basis,
    smith,
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


def assert_smith_valid(m: IntMatrix) -> None:
    s = smith(m)
    assert (s.u @ m @ s.v).to_lists() == s.d.to_lists()
    assert abs(determinant(s.u)) == 1
    assert abs(determinant(s.v)) == 1
    diag = [s.d.rows[i][i] for i in range(min(m.n_rows, m.n_cols))]
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            if i != j:
                assert s.d.rows[i][j] == 0
    for x in diag:
        assert x >= 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert s.rank == sum(1 for x in diag if x)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    assert IntMatrix.from_rows([]).shape == (0, 0)
    assert IntMatrix.from_rows([], n_cols=3).shape == (0, 3)


def test_matrix_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    assert (a + b).to_lists() == [[1, 3], [4, 4]]
    assert (a - b).to_lists() == [[1, 1], [2, 4]]
    assert a.transpose().to_lists() == [[1, 3], [2, 4]]
    assert a.submatrix([1], [0, 1]).to_lists() == [[3, 4]]
    assert IntMatrix.identity(2).to_lists() == [[1, 0], [0, 1]]
    assert IntMatrix.zeros(1, 2).is_zero()
    assert not a.is_zero()


def test_matmul_shape_mismatch():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_smith_frozen_small_cases():
    # The golden-mean boundary matrix has trivial cokernel.
    s = smith(IntMatrix.from_rows([[-1, 0], [1, -1]]))
    assert [s.d.rows[i][i] for i in range(2)] == [1, 1]
    # A matrix with both free and torsion parts in its cokernel.
    s = smith(IntMatrix.from_rows([[2, 4], [4, 8]]))
    assert [s.d.rows[i][i] for i in range(2)] == [2, 0]
    assert str(cokernel(IntMatrix.from_rows([[2, 4], [4, 8]]))) == "Z (+) Z/2"
    s = smith(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert [s.d.rows[i][i] for i in range(2)] == [1, 6]


def test_smith_transforms_frozen():
    m = IntMatrix.from_rows(
        [[4, -6, 2, 0, 8], [6, 3, -9, 12, 0], [-2, 5, 7, 1, 3], [8, 0, 4, -4, 6]]
    )
    s = smith(m)
    assert s.u.to_lists() == [
        [0, 0, 1, 0], [47, 1, -12, 0], [16, 0, -4, -1], [-5667, 2, 1416, 360]
    ]
    assert s.d.to_lists() == [
        [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 48, 0]
    ]
    assert s.v.to_lists() == [
        [0, 0, 11, 11, -42],
        [0, 0, 7, -11, 47],
        [0, 1, -365, -7, -71],
        [1, -7, 2539, 180, -44],
        [0, 0, 1, -18, 74],
    ]
    # ties between pivots of equal size above 1 go to the first, row-major
    s = smith(IntMatrix.from_rows([[6, 4, 10], [4, 8, 6], [10, 6, 4]]))
    assert s.u.to_lists() == [[1, 0, 0], [2, 0, -1], [14, -1, -8]]
    assert s.d.to_lists() == [[2, 0, 0], [0, 2, 0], [0, 0, 102]]
    assert s.v.to_lists() == [[1, -2, 11], [-1, 3, -19], [0, 0, 1]]
    # I - A for a seeded random 0-1 matrix with n = 24; transforms reach 58 bits
    rng = random.Random(4242)
    a = [[int(rng.random() < 0.5) for _ in range(24)] for _ in range(24)]
    s = smith(IntMatrix.from_rows(
        [[int(i == j) - a[i][j] for j in range(24)] for i in range(24)]
    ))
    dump = json.dumps([s.u.to_lists(), s.d.to_lists(), s.v.to_lists()])
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "6d2b2063ba9f5b648b43f7a65ff079f61b2bd99b2f5b44abca75c19d747f46cc"
    )


def assert_form_matches_smith(m: IntMatrix) -> None:
    s, f = smith(m), smith_form(m)
    assert f.shape == m.shape
    assert f.invariant_factors == s.invariant_factors
    assert (f.rank, f.cokernel(), f.kernel()) == (s.rank, s.cokernel(), s.kernel())
    assert (cokernel(m), kernel(m)) == (s.cokernel(), s.kernel())


def test_smith_form_matches_smith_on_seeded_matrices():
    rng = random.Random(90210)
    # the zero matrices include the 0 x c and r x 0 shapes
    batch = [IntMatrix.zeros(r, c) for r in range(4) for c in range(4)]
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
    for n in (5, 10, 20):
        a = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
        batch.append(IntMatrix.from_rows(
            [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
        ))
    for m in batch:
        assert_form_matches_smith(m)


def test_cokernel_frozen_values():
    assert cokernel(IntMatrix.from_rows([[2]])) == AbelianGroup(0, (2,))
    assert cokernel(IntMatrix.from_rows([[-2]])) == AbelianGroup(0, (2,))
    assert cokernel(IntMatrix.from_rows([[1]])) == AbelianGroup(0)
    assert cokernel(IntMatrix.from_rows([[0]])) == AbelianGroup(1)
    assert cokernel(IntMatrix.zeros(2, 3)) == AbelianGroup(2)
    assert cokernel(IntMatrix.from_rows([[6, 0], [0, 10]])) == AbelianGroup(0, (2, 30))


def test_kernel_frozen_values():
    assert kernel(IntMatrix.from_rows([[1, 1]])) == AbelianGroup(1)
    assert kernel(IntMatrix.from_rows([[-1, 0], [1, -1]])) == AbelianGroup(0)
    assert kernel(IntMatrix.from_rows([[0]])) == AbelianGroup(1)
    b = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert b.shape == (2, 1)
    assert b.rows[0][0] + b.rows[1][0] == 0


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
    assert determinant(IntMatrix.from_rows([[5]])) == 5
    assert determinant(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix.identity(4)) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix.from_rows([[1, 2]]))


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
    assert_smith_valid(IntMatrix.from_rows(rows))


@settings(max_examples=200, deadline=None)
@given(rect_matrices)
def test_smith_form_matches_smith(rows):
    assert_form_matches_smith(IntMatrix.from_rows(rows))


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_determinant_matches_cofactor_expansion(rows):
    assert determinant(IntMatrix.from_rows(rows)) == cofactor_determinant(rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_invariant_factors_multiply_to_determinant(rows):
    m = IntMatrix.from_rows(rows)
    det = determinant(m)
    s = smith(m)
    prod = 1
    for x in s.invariant_factors:
        prod *= x
    if det:
        assert prod == abs(det)
    else:
        assert s.rank < m.n_rows


@settings(max_examples=150, deadline=None)
@given(rect_matrices)
def test_kernel_is_free_and_basis_spans(rows):
    m = IntMatrix.from_rows(rows)
    k = kernel(m)
    assert k.torsion == ()
    basis = kernel_basis(m)
    assert basis.n_cols == k.free_rank
    assert (m @ basis).is_zero()
