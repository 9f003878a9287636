"""Span tracer that wraps the public callables of shiftca from outside.

Each wrapped call records a span (name, start, end, parent span, task id)
in memory; self time is the span's duration minus its child spans and
minus the benchmark's own counter bookkeeping done inside it.  Size
counters are read from returned objects by per-target hooks, timed
separately and booked as benchmark-side time.

Targets are looked up by name when the tracer is installed.  A name that
no longer exists (a module, function or method deleted by a later change)
is reported as absent and its metrics read 0; the benchmark still runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter, process_time


class NullTracer:
    """Untraced runs: time each task and nothing else."""

    def run_task(self, task_id, fn):
        t0, c0 = perf_counter(), process_time()
        result = fn()
        return result, perf_counter() - t0, process_time() - c0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.stack: list[list] = []  # open frames: [span index, time covered]
        self.task = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.bench_side_s = 0.0
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self._seen: dict[int, set[str]] = defaultdict(set)
        # per live truncation (by id), ids of the operator arrays handed out
        self.operator_seen: dict[int, set[int]] = {}

    # -- installation --------------------------------------------------------

    def install(self, targets, extra_namespaces=()):
        """Wrap every ``(module, attribute path, span name, hook)`` target.

        Module-level functions are replaced in every loaded shiftca module
        (and in ``extra_namespaces``) that holds a reference to them, since
        the package imports functions by name across modules.
        """
        for module_name, path, span, hook in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(orig, span, hook)
            if parents:
                setattr(owner, attr, wrapped)
                continue
            namespaces = [vars(m) for name, m in list(sys.modules.items())
                          if name == "shiftca" or name.startswith("shiftca.")]
            namespaces += [vars(ns) for ns in extra_namespaces]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is orig:
                        ns[key] = wrapped

    def _wrap(self, orig, span, hook):
        if span is None:
            return self._wrap_counter(orig, hook)
        tracer = self
        spans, stack, self_s, calls = self.spans, self.stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            start = perf_counter()
            record = [span, start, None, parent[0] if parent else None, tracer.task]
            spans.append(record)
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[2] = end
                dur = end - start
                self_s[span] += dur - frame[1]
                calls[span] += 1
                tracer._seen[tracer.task].add(span)
                if parent is not None:
                    parent[1] += dur
            if hook is not None:
                tracer._run_hook(hook, span, args, result, parent)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _wrap_counter(self, orig, hook):
        """A wrapper without a span: the callee's time stays with its
        caller's span, and only the hook's counters are added."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            stack = tracer.stack
            tracer._run_hook(hook, orig.__qualname__, args, result,
                             stack[-1] if stack else None)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _run_hook(self, hook, name, args, result, parent):
        """Hook time is benchmark-side: it is taken out of the parent's
        self time."""
        h0 = perf_counter()
        try:
            hook(self, args, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            self.broken_hooks.add(name)
        spent = perf_counter() - h0
        self.bench_side_s += spent
        if parent is not None:
            parent[1] += spent

    # -- tasks -----------------------------------------------------------------

    def run_task(self, task_id, fn):
        """Run one task under a root frame; the root's self time is
        benchmark-side glue (argument building, stdout capture)."""
        self.task = task_id
        frame = [None, 0.0]
        self.stack.append(frame)
        t0, c0 = perf_counter(), process_time()
        try:
            result = fn()
        finally:
            dur = perf_counter() - t0
            cpu = process_time() - c0
            self.stack.pop()
            self.bench_side_s += dur - frame[1]
        return result, dur, cpu

    def task_saw(self, task_id, name) -> bool:
        return name in self._seen.get(task_id, ())

    # -- counters --------------------------------------------------------------

    def add(self, name, value):
        self.counters[name] += value

    def peak(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (the first component of a span name)."""
        out: dict[str, float] = defaultdict(float)
        for span, secs in self.self_s.items():
            out[span.split(".", 1)[0]] += secs
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps([name, start, end, parent, task]) + "\n")


# -- hooks: size counters read from returned objects ---------------------------


def _graph(tr, args, g):
    tr.add("presentations.graph_vertices", g.n_vertices)
    tr.add("presentations.graph_edges", len(g.edges))


def _monoid(tr, args, _):
    n = len(args[0])
    tr.add("pastsets.monoid_nodes", n)
    tr.peak("pastsets.monoid_nodes_max", n)


def _tsets(tr, args, tsets):
    tr.add("pastsets.tsets", len(tsets))


def _past_set(tr, args, past):
    tr.add("pastsets.past_words", len(past.words))


def _tower(tr, args, tw):
    tr.add("tower.levels_built", len(tw.levels))
    if tw.stabilized_at is not None:
        tr.add("tower.classes_stable", tw.levels[tw.stabilized_at].m)


def _smith(tr, args, dec):
    rows, cols = args[0].shape
    tr.peak("intlinalg.smith_dim_max", max(rows, cols))
    bits = max(
        (abs(x).bit_length() for m in (dec.u, dec.v) for row in m.rows for x in row),
        default=0,
    )
    tr.peak("intlinalg.transform_bits_max", bits)


def _tset_scan(tr, args, _):
    # one call scans the whole monoid for one T-set
    tr.add("conditions.condition_I.scan_nodes", len(args[0]))


def _ideals(tr, args, rep):
    tr.add("conditions.ideal_elements", len(rep.elements))


def _truncation(tr, args, rep):
    tr.peak("repcheck.basis_words_max", rep.size)


def _operator(tr, args, arr):
    # a repeated call returns the cached array object itself
    rep = args[0]
    seen = tr.operator_seen.get(id(rep))
    if seen is None:
        seen = tr.operator_seen[id(rep)] = set()
        weakref.finalize(rep, tr.operator_seen.pop, id(rep), None)
    if id(arr) in seen:
        tr.add("repcheck.operator.hits", 1)
    else:
        seen.add(id(arr))


def _relations(tr, args, report):
    tr.add("repcheck.checks", len(report.checks))
    for c in report.checks:
        if c.relation == "projection":
            tr.add("repcheck.interior_cols", c.interior)
            tr.add("repcheck.product_cols", report.basis_size)


def _quadruple(tr, args, _):
    n = args[0].shape[0]
    tr.add("backend.dense_bytes", n * n * 8)


# (module, attribute path, span name, hook); the span name's first
# component is the layer the span's self time is booked to.  A target
# without a span name only feeds its hook's counters.
TARGETS = [
    ("shiftca.presentations", "to_labeled_graph", "presentations.to_labeled_graph", _graph),
    ("shiftca.pastsets", "MonoidGraph.__init__", "pastsets.MonoidGraph", _monoid),
    ("shiftca.pastsets", "realized_tsets", "pastsets.realized_tsets", _tsets),
    ("shiftca.pastsets", "PastSetCalculator.past_set", "pastsets.past_set", _past_set),
    ("shiftca.pastsets", "PastSetCalculator.has_exact_length_word",
     "pastsets.has_exact_length_word", None),
    ("shiftca.tower", "build_tower", "tower.build_tower", _tower),
    ("shiftca.tower", "Tower.ensure_level", "tower.ensure_level", None),
    ("shiftca.tower", "matrix_I", "tower.matrices", None),
    ("shiftca.tower", "matrix_A", "tower.matrices", None),
    ("shiftca.tower", "matrix_B", "tower.matrices", None),
    ("shiftca.tower", "stable_permutation", "tower.stable_permutation", None),
    ("shiftca.intlinalg", "smith", "intlinalg.smith", _smith),
    ("shiftca.intlinalg", "cokernel", "intlinalg.cokernel", None),
    ("shiftca.intlinalg", "kernel", "intlinalg.kernel", None),
    ("shiftca.invariants", "k_groups", "invariants.k_groups", None),
    ("shiftca.invariants", "dimension_group", "invariants.dimension_group", None),
    ("shiftca.invariants", "bowen_franks", "invariants.bowen_franks", None),
    ("shiftca.invariants", "ck_oracle", "invariants.ck_oracle", None),
    ("shiftca.conditions", "condition_I", "conditions.condition_I", None),
    ("shiftca.conditions", "_count_points_with_tset", None, _tset_scan),
    ("shiftca.conditions", "condition_star", "conditions.condition_star", None),
    ("shiftca.conditions", "aperiodic_past", "conditions.aperiodic_past", None),
    ("shiftca.conditions", "irreducible_past", "conditions.irreducible_past", None),
    ("shiftca.conditions", "ideal_lattice", "conditions.ideal_lattice", _ideals),
    ("shiftca.repcheck", "build_truncation", "repcheck.build_truncation", _truncation),
    ("shiftca.repcheck", "TruncatedRep.operator", "repcheck.operator", _operator),
    ("shiftca.repcheck", "check_universal_relations",
     "repcheck.check_universal_relations", _relations),
    ("shiftca.repcheck", "check_ck_relations", "repcheck.check_ck_relations", _relations),
    ("shiftca._backend", "quadruple_product", "backend.quadruple_product", _quadruple),
    ("shiftca.cli", "main", "cli.main", None),
]

LAYERS = ("presentations", "pastsets", "tower", "intlinalg", "invariants",
          "conditions", "repcheck", "backend", "cli")
