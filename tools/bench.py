"""In-process stage timings of this checkout, optionally against another.

    python3 tools/bench.py SUITE [--base DIR] [--repeat N] [--only NAMES]

SUITE names a list of stages and the inputs it times them on:

- ``tower``: ``build_tower``, and apart from it the relation monoid
  (counted by ``RelationMonoid``), the realized T-sets (``point_tsets``; the
  backward subset automaton it reads, which the tower builds as well, is
  left out) and ``condition_star`` on the built tower.  The inputs are the
  random SFTs of the benchmark's ``sft-cli`` workload (n = 16, 28, 20), the
  labeled graphs, mod-k gap graphs and 0^k shifts of its ``sofic-towers``
  workload, all drawn as ``layerbench`` draws them with seed 1, seed-7
  random SFTs with n = 80, 120 and 160, and revk (k = 12, 13): the CI memory
  guard's "k-th symbol from the end" graph with every edge reversed.
- ``smith``: ``intlinalg.smith_form`` on I - A for seeded random 0-1
  matrices A (entries 1 with probability 1/2, drawn row by row from
  ``random.Random(7)``, as the CI memory guard draws its SFTs) with
  n = 80, 120, 160, 200, and within it the time spent in
  ``_det_and_projection``, the batched modular elimination; ``primes`` is
  the number of primes each side reduces by.  Milliseconds.
- ``repcheck``: ``check_universal_relations`` (word budget 4) and, on SFT
  inputs, ``check_ck_relations`` in that order on a fresh truncation, as
  the benchmark's relation-checks workload runs them.

With ``--base DIR``, the ``shiftca`` package under ``DIR`` (another
checkout's ``src``) is imported as well, under another name, and the two
trees alternate run by run in one process, the order flipped on every run,
so that a slow spell of the machine falls on both sides.  The run exits
nonzero as soon as the trees disagree on an input's sizes or answers.
Prints one JSON document with the machine and, per input, the sizes, the
runs per side and each stage's median per side with the change/base ratio.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def load(src, name):
    """Import the ``shiftca`` package under ``src`` as ``name``."""
    init = os.path.join(src, "shiftca", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


def modules(name, *parts):
    return [importlib.import_module(f"{name}.{p}") for p in parts]


def timed(times, stage, fn, *args):
    """``fn(*args)``, its seconds appended to ``times[stage]``."""
    t = time.perf_counter()
    out = fn(*args)
    times[stage].append(time.perf_counter() - t)
    return out


class Tower:
    stages = ("build_tower", "monoid", "tsets", "condition_star")
    key, scale, digits, repeat, per_side = "seconds_median", 1, 6, 15, ()

    def __init__(self, name):
        self.pres, self.ps, self.tower, self.cond = modules(
            name, "presentations", "pastsets", "tower", "conditions"
        )

    def run(self, doc, times):
        g = self.pres.to_labeled_graph(self.pres.Presentation.from_dict(doc))
        m = timed(times, "monoid", self.ps.RelationMonoid, g)
        pre = self.ps.predecessor_table(g)
        tsets = timed(times, "tsets", self.ps.point_tsets, pre, g.full_mask)
        sizes = {"monoid_nodes": len(m), "b_states": len(pre), "tset_count": len(tsets)}
        del m, pre
        tw = timed(times, "build_tower", self.tower.build_tower, g)
        star = timed(times, "condition_star", self.cond.condition_star, tw)
        return {**sizes, "stabilized_at": tw.stabilized_at}, star.to_json_dict()

    @staticmethod
    def inputs():
        sys.path.insert(0, os.path.join(HERE, "..", "layerbench"))
        import workloads as wl

        seed, out = 1, []
        # SftCli draws random16, random28, then random20, each relabeled
        pool, rng = random.Random("layerbench/sft-cli"), random.Random(seed)
        for n in (16, 28, 20):
            matrix = wl.relabel_matrix(rng, wl.random_matrix(pool, n))
            out.append((f"random{n}", wl.sft_doc(matrix), None))
        sofic = wl.SoficTowers.__new__(wl.SoficTowers)
        wl.Workload.__init__(sofic, seed, None)
        graphs, _ = sofic._graphs()
        for i, (edges, _) in enumerate(graphs):
            out.append((f"graph{i}", wl.graph_doc(wl.SoficTowers.GRAPH_VERTICES, edges), None))
        out += [(f"gap{k}", wl.graph_doc(k, wl.gap_edges(k)), None)
                for k in wl.SoficTowers.GAPS]
        out += [(f"zeros{k}", wl.forbidden_doc(["0" * k]), None)
                for k in wl.SoficTowers.ZERO_RUNS]
        for n, runs in ((80, 5), (120, 3), (160, 3)):
            big = random.Random(7)
            matrix = [[int(big.random() < 0.5) for _ in range(n)] for _ in range(n)]
            out.append((f"sft{n}", wl.sft_doc(matrix, [f"s{i}" for i in range(n)]), runs))
        for k, runs in ((12, 5), (13, 3)):
            edges = [(0, 0, "0"), (0, 0, "1"), (0, 1, "1")]
            edges += [(i, i + 1, s) for i in range(1, k) for s in "01"]
            edges += [(k, 0, s) for s in "01"]
            rev = [(b, a, s) for a, b, s in edges]
            out.append((f"rev{k}", wl.graph_doc(k + 1, rev), runs))
        return out


class Smith:
    stages = ("smith_form", "det_and_projection")
    key, scale, digits, repeat, per_side = "ms_median", 1e3, 3, 9, ("primes",)

    def __init__(self, name):
        (self.il,) = modules(name, "intlinalg")
        kernel = self.il._det_and_projection

        def counted(w, n, primes):
            t = time.perf_counter()
            out = kernel(w, n, primes)
            self.kernel_s += time.perf_counter() - t
            self.primes += len(primes)
            return out

        self.il._det_and_projection = counted

    def run(self, rows, times):
        m = self.il.IntMatrix.from_rows(rows)
        self.kernel_s, self.primes = 0.0, 0
        factors = timed(times, "smith_form", self.il.smith_form, m).invariant_factors
        times["det_and_projection"].append(self.kernel_s)
        return {"s_n_minus_1": factors[-2], "primes": self.primes}, factors

    @staticmethod
    def inputs():
        out = []
        for n in (80, 120, 160, 200):
            rng = random.Random(7)
            a = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
            i_minus_a = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
            out.append((f"n{n}", i_minus_a, None))
        return out


GOLDEN = [[1, 1], [1, 0]]
EVEN = [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]


class Repcheck:
    stages = ("universal", "ck")
    key, scale, digits, repeat, per_side = "seconds_median", 1, 6, 15, ()

    def __init__(self, name):
        self.pres, self.rc = modules(name, "presentations", "repcheck")

    def run(self, item, times):
        data, depth = item
        if isinstance(data[0], tuple):
            p = self.pres.Presentation.labeled_graph(("0", "1"), 2, data)
        else:
            p = self.pres.Presentation.sft(tuple("abcdef"[: len(data)]), data)
        rep = self.rc.build_truncation(p, depth)
        reports = [timed(times, "universal", self.rc.check_universal_relations, rep, 4)]
        if p.kind == "sft":
            reports.append(timed(times, "ck", self.rc.check_ck_relations, rep))
        return {"basis": rep.size}, [r.to_json_dict() for r in reports]

    @staticmethod
    def inputs():
        # the six inputs of the relation-checks workload (the 3-symbol SFT
        # not relabeled), then three larger bases
        return [
            ("golden@10", (GOLDEN, 10), None),
            ("golden@12", (GOLDEN, 12), None),
            ("golden@14", (GOLDEN, 14), None),
            ("full2@10", ([[1, 1], [1, 1]], 10), None),
            ("even@12", (EVEN, 12), None),
            ("three@9", ([[0, 0, 1], [1, 0, 1], [1, 1, 0]], 9), None),
            ("golden@18", (GOLDEN, 18), 7),
            ("golden@23", (GOLDEN, 23), 3),
            ("full6@4", ([[1] * 6] * 6, 4), None),
        ]


SUITES = {"tower": Tower, "smith": Smith, "repcheck": Repcheck}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite", choices=SUITES)
    ap.add_argument("--base", help="src directory of the tree to compare with")
    ap.add_argument("--repeat", type=int,
                    help="runs per side on inputs without a run count of their "
                         "own (default: 9 for smith, 15 otherwise)")
    ap.add_argument("--only", help="comma-separated input names")
    args = ap.parse_args()
    suite = SUITES[args.suite]
    trees = {"change": (os.path.join(HERE, "..", "src"), "shiftca")}
    if args.base:
        trees["base"] = (os.path.abspath(args.base), "shiftca_base")
    sides = {}
    for side, (src, name) in trees.items():
        load(src, name)
        sides[side] = suite(name)
    only = set(args.only.split(",")) if args.only else None
    out = {}
    for name, data, runs in suite.inputs():
        if only and name not in only:
            continue
        repeat = runs or args.repeat or suite.repeat
        times = {s: {stage: [] for stage in suite.stages} for s in sides}
        order, seen = list(sides), {}
        for i in range(repeat):
            for s in order if i % 2 == 0 else order[::-1]:
                seen[s] = sides[s].run(data, times[s])
        sizes = {s: sz for s, (sz, _) in seen.items()}
        agreed = {
            json.dumps([{k: v for k, v in sz.items() if k not in suite.per_side},
                        answer], sort_keys=True)
            for sz, answer in seen.values()
        }
        if len(agreed) != 1:
            raise SystemExit(f"{name}: the trees disagree on sizes or answers; "
                             f"sizes {sizes}")
        row = {k: {s: sizes[s][k] for s in sides} if k in suite.per_side else v
               for k, v in sizes["change"].items()}
        row["runs"] = repeat
        for stage in suite.stages:
            if not times["change"][stage]:
                continue
            med = {s: statistics.median(times[s][stage]) * suite.scale for s in sides}
            row[stage] = {s: round(v, suite.digits) for s, v in med.items()}
            if "base" in med:
                row[stage]["ratio"] = round(med["change"] / med["base"], 3)
        out[name] = row
        print(name, json.dumps(row), file=sys.stderr, flush=True)
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        suite.key: out,
    }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
