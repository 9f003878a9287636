"""In-process timings of the relation checks, optionally against another tree.

    python3 tools/bench_repcheck.py [--base DIR] [--repeat N] [--only NAMES]

Times ``check_universal_relations`` (word budget 4) and, on SFT inputs,
``check_ck_relations`` in that order on a fresh truncation, as the
benchmark's relation-checks workload runs them, on the inputs in
``INPUTS``.  With ``--base DIR``, the ``shiftca`` package under ``DIR``
(another checkout's ``src``) is imported as well, under another name, and
the two trees alternate run by run in one process, so that a slow spell of
the machine falls on both sides.  Prints one JSON document with the median
seconds per input and side, the change/base ratio, and the machine.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = [[1, 1], [1, 0]]
EVEN = [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
# the six inputs of the relation-checks workload (the 3-symbol SFT not
# relabeled), then three larger bases
INPUTS = [
    ("golden@10", GOLDEN, 10),
    ("golden@12", GOLDEN, 12),
    ("golden@14", GOLDEN, 14),
    ("full2@10", [[1, 1], [1, 1]], 10),
    ("even@12", EVEN, 12),
    ("three@9", [[0, 0, 1], [1, 0, 1], [1, 1, 0]], 9),
    ("golden@18", GOLDEN, 18),
    ("golden@23", GOLDEN, 23),
    ("full6@4", [[1] * 6] * 6, 4),
]


def load(src, name):
    """The ``shiftca`` package under ``src``, imported as ``name``."""
    init = os.path.join(src, "shiftca", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return (
        importlib.import_module(f"{name}.presentations"),
        importlib.import_module(f"{name}.repcheck"),
    )


def one_run(pres, rc, data, depth, times):
    if isinstance(data[0], tuple):
        p = pres.Presentation.labeled_graph(("0", "1"), 2, data)
    else:
        p = pres.Presentation.sft(tuple("abcdef"[: len(data)]), data)
    rep = rc.build_truncation(p, depth)
    t0 = time.perf_counter()
    rc.check_universal_relations(rep, word_budget=4)
    times["universal"].append(time.perf_counter() - t0)
    if p.kind == "sft":
        t0 = time.perf_counter()
        rc.check_ck_relations(rep)
        times["ck"].append(time.perf_counter() - t0)
    return rep.size


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="src directory of the tree to compare with")
    ap.add_argument("--repeat", type=int, default=15,
                    help="runs per side on the six small inputs (3 and 7 on "
                         "golden@23 and golden@18)")
    ap.add_argument("--only", help="comma-separated input names")
    args = ap.parse_args()
    sides = {"change": load(os.path.join(HERE, "..", "src"), "shiftca")}
    if args.base:
        sides["base"] = load(os.path.abspath(args.base), "shiftca_base")
    only = set(args.only.split(",")) if args.only else None
    out = {}
    for name, data, depth in INPUTS:
        if only and name not in only:
            continue
        repeat = {"golden@23": 3, "golden@18": 7}.get(name, args.repeat)
        times = {s: {"universal": [], "ck": []} for s in sides}
        order = list(sides)
        for i in range(repeat):
            for s in order if i % 2 == 0 else order[::-1]:
                size = one_run(*sides[s], data, depth, times[s])
        row = {"basis": size, "runs": repeat}
        for check in ("universal", "ck"):
            if not times["change"][check]:
                continue
            med = {s: statistics.median(times[s][check]) for s in sides}
            row[check] = {s: round(v, 6) for s, v in med.items()}
            if "base" in med:
                row[check]["ratio"] = round(med["change"] / med["base"], 3)
        out[name] = row
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
