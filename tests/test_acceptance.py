"""Acceptance gate: one test per shipped guarantee, one PASS line each.

Each test prints a single summary line on success; pytest's own report
carries the fail line otherwise.  Wall-clock budgets are asserted where the
guarantee includes one.  Random sweeps are seeded so a failure replays
byte-for-byte.
"""

import itertools
import json
import math
import random
import time
from itertools import product

import pytest

from shiftca.conditions import (
    aperiodic_past,
    condition_I,
    condition_star,
    ideal_lattice,
    irreducible_past,
)
from shiftca.errors import EmptyShift
from shiftca.intlinalg import AbelianGroup, IntMatrix, SmithForm, kernel, smith_form
from shiftca.invariants import bowen_franks, ck_oracle, k_groups
from shiftca.pastsets import point_past_set
from shiftca.presentations import Presentation, to_labeled_graph
from shiftca.repcheck import (
    build_truncation,
    check_ck_relations,
    check_universal_relations,
)
from shiftca.tower import (
    build_tower,
    filtration_map_A,
    filtration_map_I,
    matrix_B,
    matrix_I,
    projection_delta,
)
from shiftca.cli import main

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)
POINT = Presentation.sft(("0",), ((1,),))

TRIVIAL = AbelianGroup(0)
Z = AbelianGroup(1)


def full_shift(n):
    return Presentation.sft(
        tuple(str(i) for i in range(n)), tuple((1,) * n for _ in range(n))
    )


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def test_acceptance_1_full_shift_k_theory():
    for n in range(2, 7):
        t0 = time.perf_counter()
        rep = k_groups(build_tower(full_shift(n)))
        dt = time.perf_counter() - t0
        want_k0 = TRIVIAL if n == 2 else AbelianGroup(0, (n - 1,))
        assert rep.k0 == want_k0, n
        assert rep.k1 == TRIVIAL, n
        assert rep.exact, n
        assert dt < 1.0, (n, dt)
    print("ACCEPTANCE 1: PASS — full shifts n=2..6 give K0=Z/(n-1), K1=0, each <1s")


def test_acceptance_2_oracle_equivalence():
    t_start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        rows_pool = [r for r in itertools.product((0, 1), repeat=n) if any(r)]
        for mat in itertools.product(rows_pool, repeat=n):
            p = Presentation.sft(tuple(str(i) for i in range(n)), mat)
            orc = ck_oracle(p)
            if not orc.primitive:
                continue  # collapse can disagree on iterated-zero-column fringes
            rep = k_groups(build_tower(p))
            assert (rep.k0, rep.k1) == (orc.k0, orc.k1), mat
            checked += 1
    assert checked == 175

    # the exhaustive sweep covers every essential matrix class with n <= 3;
    # pin the class count so the sweep's scope cannot silently shrink
    class_counts = []
    for n in (1, 2, 3):
        classes = set()
        perms = list(itertools.permutations(range(n)))
        for mat in itertools.product(
            itertools.product((0, 1), repeat=n), repeat=n
        ):
            if any(not any(r) for r in mat):
                continue
            if any(not any(mat[i][j] for i in range(n)) for j in range(n)):
                continue
            best = None
            for pi in perms:
                pm = tuple(
                    tuple(mat[pi[i]][pi[j]] for j in range(n)) for i in range(n)
                )
                tp = tuple(tuple(pm[j][i] for j in range(n)) for i in range(n))
                for cand in (pm, tp):
                    if best is None or cand < best:
                        best = cand
            classes.add(best)
        class_counts.append(len(classes))
    assert class_counts == [1, 5, 43]

    rng = random.Random(94085)
    done = 0
    while done < 100:
        n = rng.choice((4, 5))
        mat = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        if any(not any(r) for r in mat):
            continue
        if any(not any(mat[i][j] for i in range(n)) for j in range(n)):
            continue
        p = Presentation.sft(tuple(str(i) for i in range(n)), mat)
        orc = ck_oracle(p)
        rep = k_groups(build_tower(p))
        assert (rep.k0, rep.k1) == (orc.k0, orc.k1), mat
        done += 1
    total = time.perf_counter() - t_start
    assert total < 30.0, total
    print(
        "ACCEPTANCE 2: PASS — tower K-groups match the collapsed-matrix oracle "
        f"on 175 exhaustive + 100 random cases in {total:.1f}s"
    )


def test_acceptance_3_golden_mean_invariants():
    tw = build_tower(GOLDEN)
    rep = k_groups(tw)
    assert (rep.k0, rep.k1, rep.exact) == (TRIVIAL, TRIVIAL, True)
    assert bowen_franks(GOLDEN).group == TRIVIAL
    assert condition_I(tw).status == "holds"
    assert aperiodic_past(tw).status == "holds"
    lat = ideal_lattice(tw)
    assert lat.elements == ((), (0, 1))
    print(
        "ACCEPTANCE 3: PASS — golden mean: trivial K0/K1/BF, condition I and "
        "aperiodicity hold, two ideals"
    )


def test_acceptance_4_even_shift_diagrams_and_stability():
    tw = build_tower(EVEN)
    l0 = tw.stabilized_at
    assert l0 is not None and l0 <= 4
    tw.ensure_level(l0 + 3)
    top = tw.top_level
    squares = 0
    for l in range(top - 1):
        for k in range(l + 1):
            lhs = filtration_map_A(tw, l + 1, k) @ filtration_map_I(tw, l, k)
            rhs = filtration_map_I(tw, l + 1, k + 1) @ filtration_map_A(tw, l, k)
            assert lhs.to_lists() == rhs.to_lists(), ("transition", l, k)
            squares += 1
    for l in range(1, top):
        for k in range(l):
            lhs = filtration_map_I(tw, l, k + 1) @ projection_delta(tw, l, k)
            rhs = projection_delta(tw, l + 1, k) @ filtration_map_I(tw, l, k)
            assert lhs.to_lists() == rhs.to_lists(), ("projection", l, k)
            squares += 1
    for l in range(1, top - 1):
        lhs = matrix_I(tw, l + 1) @ matrix_B(tw, l)
        rhs = matrix_B(tw, l + 1) @ filtration_map_I(tw, l, 1)
        assert lhs.to_lists() == rhs.to_lists(), ("boundary", l)
        squares += 1
    for fn in (condition_I, aperiodic_past, irreducible_past):
        assert fn(tw, level=l0).status == fn(tw, level=l0 + 1).status, fn.__name__
    a = ideal_lattice(tw, level=l0)
    b = ideal_lattice(tw, level=l0 + 1)
    assert (a.elements, a.order) == (b.elements, b.order)
    assert (
        condition_star(tw).to_json_dict() == condition_star(tw).to_json_dict()
    )
    print(
        f"ACCEPTANCE 4: PASS — even shift stabilizes at {l0}, {squares} "
        "commuting squares hold, verdicts stable one level deeper"
    )


def test_acceptance_5_single_point_shift():
    tw = build_tower(POINT)
    rep = k_groups(tw)
    assert (rep.k0, rep.k1) == (Z, Z)
    v = condition_I(tw)
    assert v.status == "fails"
    assert v.certificate["point"] == {"prefix": "", "period": "0"}
    print(
        "ACCEPTANCE 5: PASS — single fixed point: K0=K1=Z, condition I fails "
        "with certificate"
    )


def test_acceptance_6_relation_checks_exact():
    r = build_truncation(GOLDEN, 8)
    check_universal_relations(r, word_budget=2)  # warm any jit path
    t0 = time.perf_counter()
    rep = check_universal_relations(r, word_budget=4)
    ck = check_ck_relations(r)
    dt = time.perf_counter() - t0
    assert rep.passed and ck.passed
    pairs = {(c.left, c.right) for c in rep.checks}
    assert len(pairs) >= 50
    for c in rep.checks + ck.checks:
        assert c.passed and c.witness is None
        assert c.interior > 0
    assert dt < 5.0, dt
    print(
        f"ACCEPTANCE 6: PASS — {len(rep.checks) + len(ck.checks)} relation "
        f"checks over {len(pairs)} pairs exact at depth 8 in {dt:.2f}s"
    )


def _brute_pre(g, tset, sym_idx):
    out = 0
    for (src, dst, s) in g.edges:
        if s == sym_idx and (tset >> dst) & 1:
            out |= 1 << src
    return out


def _brute_past_words(g, tset, level):
    n_sym = len(g.alphabet)
    found = []
    for k in range(level + 1):
        for combo in product(range(n_sym), repeat=k):
            cur = tset
            for a in reversed(combo):
                cur = _brute_pre(g, cur, a)
                if not cur:
                    break
            if cur:
                found.append(tuple(g.alphabet.symbols[a] for a in combo))
    return sorted(found, key=lambda w: (len(w), w))


def _check_past_sets(g):
    for tset in range(1, 1 << g.n_vertices):
        for level in range(4):
            got = list(point_past_set(g, tset, level))
            assert got == _brute_past_words(g, tset, level)


def test_acceptance_7_property_suites(tmp_path, capsys):
    # refinement uniqueness across the worked examples
    for pres in (GOLDEN, EVEN, POINT, full_shift(3)):
        tw = build_tower(pres)
        tw.ensure_level(tw.stabilized_at + 3)
        for l in range(tw.top_level):
            fine = tw.level(l + 1)
            for c in fine.classes:
                row = matrix_I(tw, l).rows[c.index]
                assert sum(row) == 1 and set(row) <= {0, 1}
                parent = tw.level(l).classes[fine.parent[c.index]]
                assert set(c.tsets) <= set(parent.tsets)

    # invariant factors are the determinantal divisors: d_1 ... d_k is the
    # gcd of all k x k minors (cofactor expansion), up to the rank
    rng = random.Random(17041)
    batch = []
    for _ in range(100):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
        batch.append(
            IntMatrix.from_rows(
                [
                    [rng.randint(-9, 9) for _ in range(n_cols)]
                    for _ in range(n_rows)
                ]
            )
        )
    batch.append(matrix_B(build_tower(GOLDEN), 1))
    batch.append(matrix_B(build_tower(EVEN), 2))
    for m in batch:
        factors, prev = [], 1
        for k in range(1, min(m.shape) + 1):
            minors = (
                _cofactor_det([[m.rows[i][j] for j in cols] for i in rows])
                for rows in itertools.combinations(range(m.n_rows), k)
                for cols in itertools.combinations(range(m.n_cols), k)
            )
            g = math.gcd(*minors)
            if g == 0:
                break
            factors.append(g // prev)
            prev = g
        assert smith_form(m) == SmithForm(m.shape, tuple(factors))
        assert kernel(m) == AbelianGroup(m.n_cols - len(factors))

    # past sets vs brute force: exhaustive tiny graphs, seeded larger sample
    for nv, ns in ((1, 1), (1, 2), (2, 1), (2, 2)):
        syms = tuple("ab"[:ns])
        cells = [
            (s, d, syms[a])
            for s in range(nv)
            for d in range(nv)
            for a in range(ns)
        ]
        for r in range(1, len(cells) + 1):
            for combo in itertools.combinations(cells, r):
                try:
                    g = to_labeled_graph(
                        Presentation.labeled_graph(syms, nv, list(combo))
                    )
                except EmptyShift:
                    continue
                _check_past_sets(g)
    rng = random.Random(60901)
    done = 0
    while done < 150:
        nv = rng.randint(1, 4)
        ns = rng.randint(1, 3)
        syms = tuple("abc"[:ns])
        edges = [
            (rng.randrange(nv), rng.randrange(nv), syms[rng.randrange(ns)])
            for _ in range(rng.randint(1, 20))
        ]
        try:
            g = to_labeled_graph(Presentation.labeled_graph(syms, nv, edges))
        except EmptyShift:
            continue
        _check_past_sets(g)
        done += 1

    # --json output is byte-identical across runs
    inp = tmp_path / "even.json"
    inp.write_text(EVEN.to_json())
    runs = []
    for _ in range(2):
        assert main(["kgroups", "-i", str(inp), "--json"]) == 0
        assert main(["classes", "-i", str(inp), "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    for line in runs[0].splitlines():
        json.loads(line)

    print(
        "ACCEPTANCE 7: PASS — refinement unique, invariant factors = determinantal "
        "divisors, kernels free, past sets match brute force, --json deterministic"
    )
