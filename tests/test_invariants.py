"""K-groups, dimension groups, Bowen-Franks, and the collapsed-matrix oracle."""

import pytest

import shiftca.intlinalg
import shiftca.invariants
from shiftca.errors import NotStabilized, TowerTooShallow, WrongKind
from shiftca.intlinalg import AbelianGroup
from shiftca.invariants import bowen_franks, ck_oracle, dimension_group, k_groups
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
    shallow = build_tower(EVEN, max_level=1)
    with pytest.raises(TowerTooShallow):
        k_groups(shallow)
    rep = k_groups(build_tower(EVEN, max_level=1), allow_partial=True)
    assert not rep.exact
    assert rep.level == 1
    # the level-1 approximation has not yet separated the two parities
    assert (rep.k0, rep.k1) == (Z, TRIVIAL)
    # building B one level deeper stabilizes the golden tower; the report
    # still describes the budget it was given
    rep = k_groups(build_tower(GOLDEN, max_level=1), allow_partial=True)
    assert (rep.k0, rep.k1, rep.exact, rep.level) == (TRIVIAL, TRIVIAL, False, 1)


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
    calls = []
    real = shiftca.intlinalg.smith

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(shiftca.intlinalg, "smith", counting)
    monkeypatch.setattr(shiftca.invariants, "smith", counting, raising=False)
    for run in (
        lambda: ck_oracle(full_shift(3)),
        lambda: k_groups(build_tower(GOLDEN)),
        lambda: k_groups(build_tower(EVEN, max_level=1), allow_partial=True),
    ):
        calls.clear()
        run()
        assert len(calls) == 1
