"""One workload in one process: set up, run closed-loop passes, report.

Run by ``run.py``, one child at a time, with the checkout's ``src`` on
``PYTHONPATH``.  Prints one JSON document on its last stdout line.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports shiftca)
from tracer import LAYERS, TARGETS, NullTracer, Tracer  # noqa: E402

# stop starting passes this long after the first one began, whatever
# --seconds says, so a child always ends well inside the 180 s limit
HARD_LIMIT_S = 120.0
MIN_PASSES = 4  # an untraced run makes at least this many passes
# percentiles tried for the tail, highest first; each workload is sized so
# that its tail lands inside one repeated task's latencies
TAIL_LADDER = (99, 98, 97, 95, 90, 85, 80, 75, 50)
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   ".layerbench_out")


def run_passes(wl, tracer, seconds, min_passes):
    tasks = wl.tasks
    first: list = [None] * len(tasks)
    passes, latencies, mismatches, failures = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    durations = []
    while True:
        index = len(passes)
        wl.begin_pass(index)
        p0 = time.perf_counter()
        wall = cpu = 0.0
        pass_latencies = []
        for i, task in enumerate(tasks):
            task_id = index * len(tasks) + i
            (status, value), dur, used = tracer.run_task(task_id, task.run)
            wall += dur
            cpu += used
            pass_latencies.append(dur)
            attempted += 1
            if status != workloads.OK:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{task.name}: {status}: {value}")
            else:
                if task.kind == "cli":
                    wl.stats["cli.stdout_bytes"] += len(value)
                digest = task.digest(value)
                if first[i] is None:
                    first[i] = digest
                    if task.check is not None:
                        try:
                            task.check(value)
                        except workloads.Mismatch as exc:
                            mismatches.append(f"{task.name}: {exc}")
                elif digest != first[i]:
                    mismatches.append(f"{task.name}: output differs from pass 1")
            if task.after is not None:
                task.after()
        wl.end_pass(index)
        passes.append({"wall_s": wall, "cpu_s": cpu,
                       "p50_s": statistics.median(pass_latencies)})
        latencies += pass_latencies
        durations.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - started
        next_end = elapsed + statistics.median(durations)
        if len(passes) >= min_passes and next_end > seconds or next_end > HARD_LIMIT_S:
            break
    pct, tail_s = tail(latencies, len(tasks))
    return {
        "passes": passes,
        "tail_percentile": pct,
        "tail_s": tail_s,
        "latency_samples": len(latencies),
        "samples_beyond_tail": sum(x > tail_s for x in latencies),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "mismatches": mismatches,
    }


def tail(latencies, tasks_per_pass):
    """Highest ladder percentile with at least 10 samples beyond it in a
    pool of MIN_PASSES passes, which every untraced run reaches.  Fixing the
    percentile by the pass size, not by the run's pass count, keeps it on the
    same task from run to run."""
    pool = tasks_per_pass * MIN_PASSES
    pct = next((p for p in TAIL_LADDER if pool * (100 - p) / 100 >= 10), 50)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return pct, cuts[pct - 1]


def layer_metrics(tracer, wl, n_passes, traced_wall_s):
    """Per-layer numbers per traced pass (times and counts are means over
    the passes; ``*_max`` values are maxima)."""
    out = {}
    for span, secs in tracer.self_s.items():
        out[f"{span}.self_s"] = secs / n_passes
        out[f"{span}.calls"] = tracer.calls[span] / n_passes
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n_passes
    for name, value in tracer.counters.items():
        out[name] = value / n_passes
    out.update(tracer.maxima)
    calls = tracer.calls.get("repcheck.operator", 0)
    out["repcheck.operator.hit_ratio"] = (
        tracer.counters.get("repcheck.operator.hits", 0) / calls if calls else 0.0)
    cols = tracer.counters.get("repcheck.product_cols", 0)
    out["repcheck.interior_share"] = (
        tracer.counters.get("repcheck.interior_cols", 0) / cols if cols else 0.0)
    for name, value in wl.stats.items():
        out[name] = value / n_passes
    cached = [index * len(wl.tasks) + i
              for index in range(n_passes)
              for i, t in enumerate(wl.tasks)
              if t.name.endswith(("/classes", "/kgroups")) and t.kind == "cli"]
    hits = sum(not tracer.task_saw(t, "tower.build_tower") for t in cached)
    out["cli.cache_hit_ratio"] = hits / len(cached) if cached else 0.0
    out["trace.wall_s"] = traced_wall_s
    out["trace.bench_side_s"] = tracer.bench_side_s / n_passes
    out["trace.layer_self_s"] = sum(layer_self.values()) / n_passes
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    doc = {"setup_s": setup_s, "notes": wl.notes}
    if not args.setup_only:
        tracer = Tracer() if args.trace else NullTracer()
        if args.trace:
            tracer.install(TARGETS, extra_namespaces=[workloads])
        # an untraced run needs enough passes for the tail percentile; a
        # traced run shares --seconds with an untraced one
        min_passes = 2 if args.trace else MIN_PASSES
        doc.update(run_passes(wl, tracer, args.seconds, min_passes))
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            n = len(doc["passes"])
            traced_wall = sum(p["wall_s"] for p in doc["passes"]) / n
            doc["per_layer"] = layer_metrics(tracer, wl, n, traced_wall)
            doc["absent"] = tracer.absent
            doc["broken_hooks"] = sorted(tracer.broken_hooks)
            doc["spans"] = len(tracer.spans)
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"spans-{args.workload}.jsonl")
            tracer.write_spans(spans)
            doc["spans_file"] = os.path.relpath(spans, os.path.dirname(OUT))
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
