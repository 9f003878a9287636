"""Layer benchmark of shiftca: one workload per invocation.

    python3 layerbench/run.py --workload sft-cli --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; ``--workload all`` runs every workload in
turn and prints one table.  The workload runs in a child process
(``worker.py``), single-threaded and closed-loop, against ``src/shiftca``
of the checkout.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced child, plus the tracing overhead against an untraced child of
equal length.  A wrong answer, or a checkout without ``src/shiftca``,
ends the run with a nonzero exit code.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".layerbench_work")

# set-up is measured this many times and the median reported: over ten
# seeds, one sample's IQR/median reached 0.35, the median of five 0.14
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 160


def child(args, workdir, seconds, trace, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--workdir", workdir, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # fixed string hashing, so set iteration orders (and the work they
    # order) repeat from run to run; one thread, as the program runs
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("SHIFTCA_CACHE_DIR", None)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(doc):
    passes = doc["passes"]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "task_p50_ms": (statistics.median(p["p50_s"] for p in passes) * 1000, "ms"),
        "task_tail_ms": (doc["tail_s"] * 1000, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def environment(args):
    import importlib.util
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "shiftca", "__init__.py")):
        sys.exit(f"no src/shiftca under {ROOT}: run from the root of a shiftca checkout")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}")

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        workdir = os.path.join(WORK, f"{name}-{args.seed}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            results[name] = measure(args, name, spec, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(WORK)
            except OSError:
                pass
    if args.workload == "all":
        for name, res in results.items():
            for metric, m in res["metrics"].items():
                print(f"{name:16s} {metric:45s} {m['value']:14.6g} {m['unit']}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


def measure(args, workload, spec, workdir):
    args = argparse.Namespace(**dict(vars(args), workload=workload))
    env = environment(args)
    if args.trace:
        plain = child(args, workdir, args.seconds / 2, 0)
        traced = child(args, workdir, args.seconds / 2, 1)
        runs = [plain, traced]
        layer = traced["per_layer"]
        layer["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced["passes"])
            / statistics.median(p["wall_s"] for p in plain["passes"]))
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        env["absent"] = traced["absent"]
        env["broken_hooks"] = traced["broken_hooks"]
        env["spans"] = traced["spans"]
        env["spans_file"] = traced["spans_file"]
    else:
        setups = [child(args, workdir, args.seconds, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        doc = child(args, workdir, args.seconds, 0)
        runs = [doc]
        setups.append(doc["setup_s"])
        values = end_to_end(doc)
        values["setup_s"] = (statistics.median(setups), "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        env["setup_samples_s"] = setups
        env["tail_percentile"] = doc["tail_percentile"]
        env["latency_samples"] = doc["latency_samples"]
        env["samples_beyond_tail"] = doc["samples_beyond_tail"]
        env["passes"] = len(doc["passes"])
    env["notes"] = runs[-1]["notes"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env["fail_ratio"] = failed / attempted
    for run in runs:
        for line in run["failures"] + run["mismatches"]:
            print(f"# {line}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    return {
        "correct": not any(r["mismatches"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    main()
