"""K-groups, dimension groups, Bowen-Franks, and the collapsed-matrix oracle."""

import random
import time
from itertools import product

import pytest

import shiftca.intlinalg
from shiftca.errors import NotStabilized, TowerTooShallow, WrongKind
from shiftca.intlinalg import AbelianGroup, IntMatrix
from shiftca.invariants import (
    _is_primitive,
    bowen_franks,
    ck_oracle,
    dimension_group,
    k_groups,
)
from shiftca.presentations import Presentation
from shiftca.tower import build_tower

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)
POINT = Presentation.sft(("0",), ((1,),))
ZEROCOL = Presentation.sft(("0", "1", "2"), ((0, 1, 0), (0, 0, 1), (0, 0, 1)))

TRIVIAL = AbelianGroup(0)
Z = AbelianGroup(1)


def full_shift(n):
    return Presentation.sft(
        tuple(str(i) for i in range(n)), tuple((1,) * n for _ in range(n))
    )


def test_golden_k_groups():
    rep = k_groups(build_tower(GOLDEN))
    assert rep.to_json_dict() == {
        "k0": {"rank": 0, "torsion": []},
        "k1": {"rank": 0, "torsion": []},
        "exact": True,
        "level": 1,
    }


def test_full_shift_k_groups():
    for n in range(2, 6):
        rep = k_groups(build_tower(full_shift(n)))
        assert rep.k0 == (TRIVIAL if n == 2 else AbelianGroup(0, (n - 1,)))
        assert rep.k1 == TRIVIAL
        assert rep.exact
        assert rep.level == 1


def test_point_and_even_k_groups():
    rep = k_groups(build_tower(POINT))
    assert (rep.k0, rep.k1, rep.exact) == (Z, Z, True)
    rep = k_groups(build_tower(EVEN))
    assert (rep.k0, rep.k1, rep.exact, rep.level) == (Z, Z, True, 2)


def test_k_groups_partial_path():
    shallow = build_tower(EVEN, max_level=2)
    with pytest.raises(TowerTooShallow):
        k_groups(shallow)
    rep = k_groups(build_tower(EVEN, max_level=2), allow_partial=True)
    assert not rep.exact
    assert rep.level == 1
    # the level-1 approximation has not yet separated the two parities
    assert (rep.k0, rep.k1) == (Z, TRIVIAL)
    # B at level 1 reads level 2, past a budget of 1: no approximation, and
    # no level past the budget is built
    tw = build_tower(GOLDEN, max_level=1)
    with pytest.raises(TowerTooShallow):
        k_groups(tw, allow_partial=True)
    assert (tw.top_level, tw.stabilized_at) == (1, None)


def test_golden_dimension_group():
    rep = dimension_group(build_tower(GOLDEN), k_max=2)
    assert rep.to_json_dict() == {
        "systems": [
            {"k": 0, "level": 1, "rank": 2, "map": [[0, 1], [1, 1]],
             "delta": [[1, 0], [0, 1]]},
            {"k": 1, "level": 2, "rank": 2, "map": [[1, 1], [1, 0]],
             "delta": [[1, 0], [0, 1]]},
            {"k": 2, "level": 3, "rank": 2, "map": [[1, 1], [1, 0]],
             "delta": [[1, 0], [0, 1]]},
        ]
    }


def test_dimension_group_stage_structure():
    tw = build_tower(EVEN)
    rep = dimension_group(tw, k_max=3)
    assert [s.k for s in rep.systems] == [0, 1, 2, 3]
    for s in rep.systems:
        assert s.level == max(tw.stabilized_at, s.k + 1, 1)
        assert s.map.shape == (len(s.classes_next), len(s.classes))
        assert s.delta.shape == s.map.shape
        for row in s.delta.rows:
            assert sum(row) <= 1
            assert set(row) <= {0, 1}


def test_dimension_group_needs_stabilization():
    with pytest.raises(NotStabilized):
        dimension_group(build_tower(EVEN, max_level=1))


def test_bowen_franks_frozen_values():
    rep = bowen_franks(GOLDEN)
    assert rep.group == TRIVIAL
    assert rep.matrix.to_lists() == [[0, -1], [-1, 1]]
    assert bowen_franks(full_shift(3)).group == AbelianGroup(0, (2,))
    assert bowen_franks(POINT).group == Z


def test_ck_oracle_full_shifts():
    for n in range(2, 6):
        rep = ck_oracle(full_shift(n))
        assert rep.collapsed.to_lists() == [[n]]
        assert rep.primitive
        assert rep.k0 == (TRIVIAL if n == 2 else AbelianGroup(0, (n - 1,)))
        assert rep.k1 == TRIVIAL
        assert len(rep.symbol_classes) == 1
        assert len(rep.symbol_classes[0]) == n


def test_ck_oracle_golden():
    rep = ck_oracle(GOLDEN)
    assert rep.to_json_dict() == {
        "k0": {"rank": 0, "torsion": []},
        "k1": {"rank": 0, "torsion": []},
        "collapsed": [[1, 1], [1, 0]],
        "symbol_classes": [["0"], ["1"]],
        "primitive": True,
    }


def test_oracle_matches_tower_on_primitive_collapses():
    sample = [
        ((1, 1), (1, 0)),
        ((1, 1), (1, 1)),
        ((0, 1), (1, 1)),
        ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
        ((0, 1, 0), (0, 0, 1), (1, 1, 0)),
        ((1, 0, 1), (1, 1, 0), (0, 1, 1)),
        ((1, 1, 1), (1, 1, 1), (1, 1, 0)),
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    ]
    for rows in sample:
        p = Presentation.sft(tuple(str(i) for i in range(len(rows))), rows)
        orc = ck_oracle(p)
        assert orc.primitive, rows
        rep = k_groups(build_tower(p))
        assert (rep.k0, rep.k1) == (orc.k0, orc.k1), rows


def test_zero_column_disagreement_is_real():
    # A symbol whose column is zero never occurs past time zero; the collapse
    # drops it while the tower still sees its one-point fringe, so the two
    # computations legitimately differ here.  Frozen so any change is loud.
    rep = k_groups(build_tower(ZEROCOL))
    assert (rep.k0, rep.k1) == (AbelianGroup(2), Z)
    orc = ck_oracle(ZEROCOL)
    assert (orc.k0, orc.k1) == (Z, Z)
    assert not orc.primitive
    assert orc.collapsed.to_lists() == [[0, 1], [0, 1]]
    assert orc.symbol_classes == (("1",), ("2",))


def test_matrix_only_invariants_reject_labeled_graphs():
    with pytest.raises(WrongKind):
        bowen_franks(EVEN)
    with pytest.raises(WrongKind):
        ck_oracle(EVEN)


def test_one_smith_decomposition_per_group_pair(monkeypatch):
    # each K0/K1 pair comes from one elimination
    calls = []
    real = shiftca.intlinalg._eliminate

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(shiftca.intlinalg, "_eliminate", counting)
    for run in (
        lambda: ck_oracle(full_shift(3)),
        lambda: k_groups(build_tower(GOLDEN)),
        lambda: k_groups(build_tower(EVEN, max_level=2), allow_partial=True),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def _primitive_by_powers(m: IntMatrix) -> bool:
    """Reference: the power iteration the graph test replaced, verbatim."""
    n = m.n_rows
    if n == 0:
        return False
    bound = n * n - 2 * n + 2
    power = m
    for _ in range(max(bound, 1)):
        if all(x > 0 for row in power.rows for x in row):
            return True
        power = power @ m
        # entries only need to be compared with 0; clamp to keep them small
        power = IntMatrix(
            tuple(tuple(min(x, 1) for x in row) for row in power.rows),
            power.n_cols,
        )
    return all(x > 0 for row in power.rows for x in row)


def test_primitivity_matches_power_iteration():
    matrices = [
        IntMatrix.from_rows([bits[i * n:(i + 1) * n] for i in range(n)], n)
        for n in range(4)
        for bits in product((0, 1), repeat=n * n)
    ]
    rng = random.Random(7207)
    for _ in range(500):
        n, density = rng.randint(1, 7), rng.random()
        matrices.append(IntMatrix.from_rows(
            [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        ))
    verdicts = [_is_primitive(m) for m in matrices]
    assert verdicts == [_primitive_by_powers(m) for m in matrices]
    assert 100 < sum(verdicts) < len(matrices) - 100


def test_oracle_on_large_reducible_matrix_is_fast():
    n = 80
    upper = Presentation.sft(
        tuple(str(i) for i in range(n)),
        tuple(tuple(int(i <= j) for j in range(n)) for i in range(n)),
    )
    start = time.perf_counter()
    rep = ck_oracle(upper)
    assert time.perf_counter() - start < 1.0
    assert not rep.primitive


def test_dimension_group_on_seeded_random_sft_is_fast():
    # the word-list class order took 20-50 s and GBs on these SFTs
    rng = random.Random(7)
    n = 16
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if all(any(r) for r in rows):
            break
    start = time.perf_counter()
    tw = build_tower(Presentation.sft(tuple(f"s{i}" for i in range(n)), rows))
    rep = dimension_group(tw, k_max=3)
    assert time.perf_counter() - start < 5.0
    assert tw.stabilized_at == 1 and tw.top_level == 5
    assert [(s.k, s.level, s.rank) for s in rep.systems] == [
        (0, 1, 16), (1, 2, 16), (2, 3, 16), (3, 4, 16)
    ]


def test_dimension_group_on_upper_triangular_n30():
    # the word-list class order ran out of memory here; the stage maps
    # follow the pattern of n = 6..12, where it still finished: A^T at
    # k = 0 and A above, with identity projections
    n = 30
    rows = tuple(tuple(int(i <= j) for j in range(n)) for i in range(n))
    start = time.perf_counter()
    tw = build_tower(Presentation.sft(tuple(f"s{i}" for i in range(n)), rows))
    rep = dimension_group(tw, k_max=3)
    assert time.perf_counter() - start < 5.0
    upper = [list(r) for r in rows]
    lower = [list(c) for c in zip(*rows)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [s.map.to_lists() for s in rep.systems] == [lower, upper, upper, upper]
    assert all(s.delta.to_lists() == ident for s in rep.systems)
    assert [s.level for s in rep.systems] == [1, 2, 3, 4]
