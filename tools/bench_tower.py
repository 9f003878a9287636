"""In-process timings of the tower build, optionally against another tree.

    python3 tools/bench_tower.py [--base DIR] [--repeat N] [--only NAMES]

Times ``build_tower`` and its two stages on the inputs below: the relation
monoid (counted by ``RelationMonoid``, or built whole by ``MonoidGraph`` in
a tree that has no counter) and the realized T-sets (``point_tsets`` on
the backward subset automaton, or ``realized_tsets`` on the monoid).  The
T-set stage leaves out the automaton itself, which both trees build for
the tower.  The inputs are the random SFTs of the benchmark's ``sft-cli``
workload (n = 16, 28, 20), the labeled graphs, mod-k gap graphs and 0^k
shifts of its ``sofic-towers`` workload, all drawn as ``layerbench`` draws
them with seed 1, and seed-7 random SFTs with n = 80 and 120.  With
``--base DIR``, the ``shiftca`` package under ``DIR`` (another checkout's
``src``) is imported as well, under another name, and the two trees
alternate run by run in one process, so that a slow spell of the machine
falls on both sides.  Prints one JSON document with the median seconds per
input, stage and side, the change/base ratio, the sizes and the machine.
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
SEED = 1
STAGES = ("build_tower", "monoid", "tsets")


def load(src, name):
    """The ``shiftca`` package under ``src``, imported as ``name``."""
    init = os.path.join(src, "shiftca", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return Side(name)


class Side:
    """One tree's tower build and its two stages."""

    def __init__(self, name):
        self.pres = importlib.import_module(f"{name}.presentations")
        self.tower = importlib.import_module(f"{name}.tower")
        ps = self.pastsets = importlib.import_module(f"{name}.pastsets")
        if hasattr(ps, "RelationMonoid"):
            self.monoid = ps.RelationMonoid
            self.tsets = lambda g, m, pre: ps.point_tsets(pre, g.full_mask)
        else:
            self.monoid = ps.MonoidGraph
            self.tsets = lambda g, m, pre: ps.realized_tsets(m)

    def run(self, doc, times):
        g = self.pres.to_labeled_graph(self.pres.Presentation.from_dict(doc))
        t0 = time.perf_counter()
        m = self.monoid(g)
        t1 = time.perf_counter()
        pre = self.pastsets.predecessor_table(g)
        t2 = time.perf_counter()
        tsets = self.tsets(g, m, pre)
        t3 = time.perf_counter()
        sizes = {"monoid_nodes": len(m), "b_states": len(pre), "tset_count": len(tsets)}
        del m, pre
        t4 = time.perf_counter()
        tw = self.tower.build_tower(g)
        times["build_tower"].append(time.perf_counter() - t4)
        times["monoid"].append(t1 - t0)
        times["tsets"].append(t3 - t2)
        return {**sizes, "stabilized_at": tw.stabilized_at}


def inputs():
    """(name, shiftspace-v1 document, runs per side) of the benchmark's
    workloads and the two large SFTs."""
    sys.path.insert(0, os.path.join(HERE, "..", "layerbench"))
    import workloads as wl

    out = []
    # SftCli draws random16, random28, then random20, each relabeled
    pool, rng = random.Random("layerbench/sft-cli"), random.Random(SEED)
    for n in (16, 28, 20):
        matrix = wl.relabel_matrix(rng, wl.random_matrix(pool, n))
        out.append((f"random{n}", wl.sft_doc(matrix), None))
    sofic = wl.SoficTowers.__new__(wl.SoficTowers)
    wl.Workload.__init__(sofic, SEED, None)
    graphs, _ = sofic._graphs()
    for i, (edges, _) in enumerate(graphs):
        out.append((f"graph{i}", wl.graph_doc(wl.SoficTowers.GRAPH_VERTICES, edges), None))
    out += [(f"gap{k}", wl.graph_doc(k, wl.gap_edges(k)), None)
            for k in wl.SoficTowers.GAPS]
    out += [(f"zeros{k}", wl.forbidden_doc(["0" * k]), None)
            for k in wl.SoficTowers.ZERO_RUNS]
    for n, runs in ((80, 5), (120, 3)):
        big = random.Random(7)
        matrix = [[int(big.random() < 0.5) for _ in range(n)] for _ in range(n)]
        out.append((f"sft{n}", wl.sft_doc(matrix, [f"s{i}" for i in range(n)]), runs))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="src directory of the tree to compare with")
    ap.add_argument("--repeat", type=int, default=15,
                    help="runs per side (5 and 3 on sft80 and sft120)")
    ap.add_argument("--only", help="comma-separated input names")
    args = ap.parse_args()
    sides = {"change": load(os.path.join(HERE, "..", "src"), "shiftca")}
    if args.base:
        sides["base"] = load(os.path.abspath(args.base), "shiftca_base")
    only = set(args.only.split(",")) if args.only else None
    out = {}
    for name, doc, runs in inputs():
        if only and name not in only:
            continue
        repeat = runs or args.repeat
        times = {s: {stage: [] for stage in STAGES} for s in sides}
        order = list(sides)
        sizes = {}
        for i in range(repeat):
            for s in order if i % 2 == 0 else order[::-1]:
                sizes[s] = sides[s].run(doc, times[s])
        if len({json.dumps(v, sort_keys=True) for v in sizes.values()}) != 1:
            raise SystemExit(f"{name}: the trees disagree: {sizes}")
        row = {**sizes["change"], "runs": repeat}
        for stage in STAGES:
            med = {s: statistics.median(times[s][stage]) for s in sides}
            row[stage] = {s: round(v, 6) for s, v in med.items()}
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
        "seconds_median": out,
    }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
