"""In-process timings of the modular Smith route, optionally against another tree.

    python3 tools/bench_smith.py [--base DIR] [--repeat N] [--sizes N,N,...]

Times ``intlinalg.smith_form`` on I - A for seeded random 0-1 matrices A
(entries 1 with probability 1/2, drawn row by row from ``random.Random(7)``,
as the CI memory guard draws its SFTs), and within it the time spent in
``_det_and_projection``, the batched modular elimination.  With
``--base DIR``, the ``shiftca`` package under ``DIR`` (another checkout's
``src``) is imported as well, under another name, and the two trees
alternate run by run in one process.  Prints one JSON document with the
median milliseconds per size, stage and side, the change/base ratio, the
number of primes each side reduces by and the machine.
"""

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time

import numpy as np

from bench_tower import load

HERE = os.path.dirname(os.path.abspath(__file__))
STAGES = ("smith_form", "det_and_projection")


class Side:
    """One tree's ``smith_form``, with its modular kernel timed."""

    def __init__(self, name):
        self.il = importlib.import_module(f"{name}.intlinalg")
        self.kernel_s = 0.0
        self.primes = 0
        kernel = self.il._det_and_projection

        def timed(w, n, primes):
            t = time.perf_counter()
            out = kernel(w, n, primes)
            self.kernel_s += time.perf_counter() - t
            self.primes += len(primes)
            return out

        self.il._det_and_projection = timed

    def run(self, rows, times):
        m = self.il.IntMatrix.from_rows(rows)
        self.kernel_s, self.primes = 0.0, 0
        t = time.perf_counter()
        factors = self.il.smith_form(m).invariant_factors
        times["smith_form"].append(time.perf_counter() - t)
        times["det_and_projection"].append(self.kernel_s)
        return factors, self.primes


def i_minus_a(n):
    rng = random.Random(7)
    a = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
    return [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="src directory of the tree to compare with")
    ap.add_argument("--repeat", type=int, default=9, help="runs per side")
    ap.add_argument("--sizes", default="80,120,160,200")
    args = ap.parse_args()
    load(os.path.join(HERE, "..", "src"), "shiftca")
    sides = {"change": Side("shiftca")}
    if args.base:
        load(os.path.abspath(args.base), "shiftca_base")
        sides["base"] = Side("shiftca_base")
    out = {}
    for n in map(int, args.sizes.split(",")):
        rows = i_minus_a(n)
        times = {s: {stage: [] for stage in STAGES} for s in sides}
        order = list(sides)
        primes, factors = {}, {}
        for i in range(args.repeat):
            for s in order if i % 2 == 0 else order[::-1]:
                factors[s], primes[s] = sides[s].run(rows, times[s])
        if len(set(factors.values())) != 1:
            raise SystemExit(f"n = {n}: the trees disagree")
        f = factors["change"]
        row = {"runs": args.repeat, "s_n_minus_1": f[-2], "primes": primes}
        for stage in STAGES:
            med = {s: statistics.median(times[s][stage]) * 1e3 for s in sides}
            row[stage] = {s: round(v, 3) for s, v in med.items()}
            if "base" in med:
                row[stage]["ratio"] = round(med["change"] / med["base"], 3)
        out[f"n{n}"] = row
        print(n, json.dumps(row), file=sys.stderr, flush=True)
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ms_median": out,
    }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
