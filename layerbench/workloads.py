"""The three seeded workloads: inputs, tasks and their reference checks.

A workload is built from a seed into a list of tasks.  Each task is one
closed-loop call into shiftca; its answer is checked against a reference
the first time it runs and must repeat byte for byte on later passes.
Inputs are written as shiftspace-v1 documents by the benchmark itself.

The random matrices, graphs and forbidden sets are drawn from a fixed
stream per workload (``Workload.pool``), and ``--seed`` relabels them: it
permutes symbols or vertices and, for graphs and forbidden words, swaps
the two binary symbols.  Every seed therefore hands the program different inputs (other
numbering, other canonical orders, other words) of the same size and
cost, so runs with different seeds are comparable.  A draw straight from
``--seed`` would make one pass differ from the next seed's by up to a
factor of two on these heavy-tailed families, and the forbidden-set tasks,
which sit at the median task latency, would move ``task_p50_ms``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

import shiftca.cli
from shiftca.errors import BudgetError
from shiftca.conditions import (
    aperiodic_past,
    condition_I,
    condition_star,
    ideal_lattice,
    irreducible_past,
)
from shiftca.invariants import dimension_group, k_groups
from shiftca.presentations import Presentation
from shiftca.repcheck import (
    build_truncation,
    check_ck_relations,
    check_universal_relations,
)
from shiftca.tower import build_tower

import reference

OK, BUDGET, ERROR = "ok", "budget", "error"


class Mismatch(Exception):
    """An answer differs from its reference."""


@dataclass
class Task:
    name: str
    kind: str                  # "cli" (value is stdout) or "lib"
    run: Callable[[], tuple]   # -> (status, value)
    digest: Callable[[object], str] = str
    check: Optional[Callable[[object], None]] = None
    after: Optional[Callable[[], None]] = None


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- shift descriptions (shiftspace-v1 documents) --------------------------------


def sft_doc(matrix, symbols=None) -> dict:
    n = len(matrix)
    symbols = symbols or [str(i) for i in range(n)]
    return {"format": "shiftspace-v1", "kind": "sft", "alphabet": list(symbols),
            "matrix": [list(r) for r in matrix]}


def graph_doc(n_vertices, edges, symbols=("0", "1")) -> dict:
    return {"format": "shiftspace-v1", "kind": "labeled_graph",
            "alphabet": list(symbols), "vertices": n_vertices,
            "edges": [{"from": s, "to": t, "label": a} for s, t, a in edges]}


def forbidden_doc(words, symbols=("0", "1")) -> dict:
    return {"format": "shiftspace-v1", "kind": "forbidden_words",
            "alphabet": list(symbols), "forbidden": list(words)}


GOLDEN = [[1, 1], [1, 0]]
POINT = [[1]]
EVEN_EDGES = [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]


def full(n):
    return [[1] * n for _ in range(n)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def gap_edges(k):
    """Mod-k gap shift: a 0-loop at vertex 0 and a k-cycle of 1-edges
    through it (k = 2 is the even shift)."""
    return [(0, 0, "0")] + [(i, (i + 1) % k, "1") for i in range(k)]


def random_matrix(rng, n, density=0.5):
    while True:
        m = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in m):
            return m


def relabel_matrix(rng, matrix):
    """The same shift with its symbols renumbered by a random permutation."""
    n = len(matrix)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = matrix[i][j]
    return out


def relabel_graph(rng, n_vertices, edges):
    """The same graph with vertices renumbered and, on a coin flip, the two
    edge labels swapped."""
    perm = list(range(n_vertices))
    rng.shuffle(perm)
    swap = {"0": "1", "1": "0"} if rng.random() < 0.5 else {"0": "0", "1": "1"}
    return sorted((perm[s], perm[t], swap[a]) for s, t, a in edges)


# -- frozen answers (the values the unit tests freeze) ---------------------------

TRIVIAL = {"rank": 0, "torsion": []}


def cyclic(order):
    return {"rank": 0, "torsion": [order] if order > 1 else []}


def free(rank):
    return {"rank": rank, "torsion": []}


GOLDEN_VERDICTS = {
    "I": {"condition": "I", "status": "holds", "method": "exact",
          "certificate": {"level": 1, "classes": [{"class": 0, "points": ">=2"},
                                                  {"class": 1, "points": ">=2"}]}},
    "star": {"condition": "star", "status": "holds", "method": "exact",
             "certificate": {"infinite_word_classes": 2, "joint_fixpoint_level": 1,
                             "matches": [{"point_tset": ["0"], "word_class_dom": ["0"]},
                                         {"point_tset": ["0", "1"],
                                          "word_class_dom": ["0", "1"]}]}},
    "aperiodic": {"condition": "aperiodic", "status": "holds",
                  "method": {"bounded_search": 1},
                  "certificate": {"level": 1, "pairs": 4}},
    "irreducible": {"status": "holds", "method": {"bounded_search": 1}},
    "ideals": {"level": 1, "elements": [[], [0, 1]], "order": [[0, 1]]},
}
EVEN_VERDICTS = {
    "I": {"condition": "I", "status": "fails", "method": "exact",
          "certificate": {"class": 0, "level": 2, "point": {"prefix": "", "period": "11"},
                          "reverified_to_depth": 12}},
    "star": {"status": "holds"},
    "aperiodic": {"condition": "aperiodic", "status": "fails", "method": "exact",
                  "certificate": {"level": 2, "source_tset": ["0"], "unreached_class": 0}},
    "irreducible": {"status": "inconclusive", "method": {"bounded_search": 2}},
    "ideals": {"level": 2, "elements": [[], [0], [0, 1, 2]], "order": [[0, 1], [1, 2]]},
}
POINT_VERDICTS = {
    "I": {"status": "fails",
          "certificate": {"class": 0, "level": 0, "point": {"prefix": "", "period": "0"},
                          "reverified_to_depth": 2}},
    "star": {"status": "holds"},
    "aperiodic": {"status": "holds", "method": {"bounded_search": 0}},
    "irreducible": {"status": "holds"},
    "ideals": {"elements": [[], [0]], "order": [[0, 1]]},
}
FULL_VERDICTS = {c: {"status": "holds"} for c in ("I", "star", "aperiodic", "irreducible")}


def check_subset(doc: dict, want: dict, what: str) -> None:
    for key, value in want.items():
        expect(doc.get(key) == value, f"{what}: {key} = {doc.get(key)!r}, want {value!r}")


def check_groups(doc: dict, k0, k1, what: str) -> None:
    expect((doc["k0"], doc["k1"]) == (k0, k1),
           f"{what}: K0, K1 = {doc['k0']}, {doc['k1']}; want {k0}, {k1}")


def group_order(group: dict) -> int:
    order = 1
    for t in group["torsion"]:
        order *= t
    return order


# -- base class --------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.pool = random.Random(f"layerbench/{self.name}")
        self.workdir = workdir
        self.notes: dict = {}
        self.stats: dict[str, float] = {}
        self.tasks: list[Task] = []

    def begin_pass(self, index: int) -> None:
        pass

    def end_pass(self, index: int) -> None:
        pass


def _lib(fn) -> Callable[[], tuple]:
    """Library call -> (status, value); budget stops and errors are failed
    tasks, never wrong answers."""
    def run():
        try:
            return OK, fn()
        except BudgetError as exc:
            return BUDGET, f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - counted and reported as a failed task
            return ERROR, f"{type(exc).__name__}: {exc}"
    return run


def _json(obj) -> str:
    return json.dumps(obj.to_json_dict(), sort_keys=True)


# -- sft-cli -----------------------------------------------------------------------


class SftCli(Workload):
    """Matrix inputs through ``shiftca.cli.main`` in-process, ``--json``."""

    name = "sft-cli"
    TOWER_COMMANDS = (["classes"], ["kgroups"], ["check", "--condition", "I"],
                      ["check", "--condition", "star"],
                      ["check", "--condition", "aperiodic"],
                      ["check", "--condition", "irreducible"], ["ideals"])
    RANDOM_SIZES = (16, 28)
    DIMENSION_GROUP_SIZE = 20
    SMITH_SIZE = 80

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.input_dir = os.path.join(workdir, "inputs")
        os.makedirs(self.input_dir, exist_ok=True)
        self.cache_dir = None
        self.stats = {"cli.cache_bytes": 0, "cli.stdout_bytes": 0}
        self.answers: dict[tuple[str, str], dict] = {}
        shifts = [("point", POINT), ("golden", GOLDEN)]
        shifts += [(f"full{n}", full(n)) for n in range(2, 7)]
        shifts += [(f"random{n}", self._random(n)) for n in self.RANDOM_SIZES]
        dg = self._random(self.DIMENSION_GROUP_SIZE)
        # not relabeled: Smith's pivot order follows the row order, and a
        # permuted copy of the same matrix can take half or twice as long
        big = random_matrix(self.pool, self.SMITH_SIZE)
        for name, matrix in shifts:
            path = self._write(name, matrix)
            for cmd in self.TOWER_COMMANDS:
                self._add(name, matrix, path, cmd)
            self._add(name, matrix, path, ["bf"])
            self._add(name, matrix, path, ["oracle-ck"])
        name = f"random{self.DIMENSION_GROUP_SIZE}"
        self._add(name, dg, self._write(name, dg), ["dimension-group", "--k-max", "1"])
        name = f"random{self.SMITH_SIZE}"
        path = self._write(name, big)
        self._add(name, big, path, ["bf"])
        self._add(name, big, path, ["oracle-ck"])

    def _random(self, n):
        return relabel_matrix(self.rng, random_matrix(self.pool, n))

    def _write(self, name, matrix) -> str:
        path = os.path.join(self.input_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sft_doc(matrix), fh)
        return path

    def _add(self, name, matrix, path, cmd):
        argv = [cmd[0], "-i", path, "--json"] + cmd[1:]
        label = cmd[0] if cmd[0] != "check" else f"check-{cmd[-1]}"

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = shiftca.cli.main(argv)
            if code == 0:
                return OK, out.getvalue()
            return (BUDGET if code == 2 else ERROR), f"exit {code}: {err.getvalue().strip()}"

        def check(stdout):
            self._check(name, matrix, label, json.loads(stdout))

        self.tasks.append(Task(f"{name}/{label}", "cli", run, check=check))

    def _check(self, name, matrix, label, doc):
        what = f"{name} {label}"
        self.answers[(name, label)] = doc
        frozen = {"golden": GOLDEN_VERDICTS, "point": POINT_VERDICTS,
                  "full2": FULL_VERDICTS}.get(name, {})
        if label.startswith("check-") and label[6:] in frozen:
            check_subset(doc, frozen[label[6:]], what)
        if label == "ideals" and "ideals" in frozen:
            check_subset(doc, frozen["ideals"], what)
        closed = None
        if name.startswith("full"):
            n = int(name[4:])
            closed = (cyclic(n - 1), TRIVIAL)
        elif name == "golden":
            closed = (TRIVIAL, TRIVIAL)
        elif name == "point":
            closed = (free(1), free(1))
        if label in ("kgroups", "oracle-ck") and closed:
            check_groups(doc, *closed, what)
        classes = self.answers.get((name, "classes"))
        if label == "kgroups" and classes:
            expect(doc["exact"] and doc["level"] == max(classes["stabilized_at"], 1),
                   f"{what}: level {doc['level']} vs classes {classes['stabilized_at']}")
        if label == "bf":
            if closed:
                expect(doc["group"] == closed[0], f"{what}: {doc['group']}")
            det = reference.bareiss_det(reference.i_minus(matrix))
            if doc["group"]["rank"] == 0:
                expect(group_order(doc["group"]) == abs(det),
                       f"{what}: group order {group_order(doc['group'])} != |det| {abs(det)}")
            else:
                expect(det == 0, f"{what}: free part but det(I-A) = {det}")
        if label == "oracle-ck":
            bf = self.answers.get((name, "bf"))
            if bf and len(doc["collapsed"]) == len(matrix):
                # no symbols merged: coker(I - A^T) and coker(I - A) agree
                expect(doc["k0"] == bf["group"], f"{what}: K0 {doc['k0']} != BF {bf['group']}")
            kg = self.answers.get((name, "kgroups"))
            if kg and doc["primitive"]:
                check_groups(kg, doc["k0"], doc["k1"], f"{name} kgroups vs oracle-ck")

    def begin_pass(self, index):
        self.cache_dir = os.path.join(self.workdir, f"cache{index}")
        os.environ["SHIFTCA_CACHE_DIR"] = self.cache_dir

    def end_pass(self, index):
        if os.path.isdir(self.cache_dir):
            self.stats["cli.cache_bytes"] += sum(
                e.stat().st_size for e in os.scandir(self.cache_dir))
            shutil.rmtree(self.cache_dir)


# -- sofic-towers ------------------------------------------------------------------


class SoficTowers(Workload):
    """Library path: tower, invariants, the four conditions and the ideal
    lattice on forbidden-word and labeled-graph shifts."""

    name = "sofic-towers"
    ZERO_RUNS = range(3, 9)
    GAPS = (16, 20, 24)
    IDENTITY = 9
    FORBIDDEN_SETS = 4
    GRAPH_VERTICES = 7
    # (low, high, how many) by relation-monoid size; the last high is the
    # monoid cap, and of the draws above it the first OVER_CAP are kept
    GRAPH_STRATA = ((50, 200, 3), (200, 800, 3), (800, 2400, 2))
    MONOID_CAP = 2400
    OVER_CAP = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        inputs = [("golden", sft_doc(GOLDEN), None), ("even", graph_doc(2, EVEN_EDGES), None)]
        inputs += [(f"zeros{k}", forbidden_doc(["0" * k]), k) for k in self.ZERO_RUNS]
        inputs += [(f"gap{k}", graph_doc(k, gap_edges(k)), None) for k in self.GAPS]
        inputs.append((f"identity{self.IDENTITY}", sft_doc(identity(self.IDENTITY)), None))
        for i in range(self.FORBIDDEN_SETS):
            inputs.append((f"forbidden{i}", forbidden_doc(self._forbidden_set()), None))
        graphs, over_cap = self._graphs()
        for i, (edges, size) in enumerate(graphs):
            inputs.append((f"graph{i}", graph_doc(self.GRAPH_VERTICES, edges), size))
        for name, doc, extra in inputs:
            self._add(name, Presentation.from_dict(doc), extra)
        for i, edges in enumerate(over_cap):
            self._add_over_cap(f"overcap{i}",
                               Presentation.from_dict(graph_doc(self.GRAPH_VERTICES, edges)))

    def _forbidden_set(self):
        """Three random binary words of lengths 4, 5, 6 whose shift is
        nonempty (some periodic point of period <= 6 avoids them all),
        with 0 and 1 swapped on a coin flip of the seed."""
        swap = str.maketrans("01", "10") if self.rng.random() < 0.5 else None
        while True:
            words = ["".join(self.pool.choice("01") for _ in range(n)) for n in (4, 5, 6)]
            for p in range(1, 7):
                for period in itertools.product("01", repeat=p):
                    text = "".join(period) * (12 // p + 2)
                    if not any(w in text for w in words):
                        return [w.translate(swap) for w in words] if swap else words

    def _graphs(self):
        want = {i: n for i, (_, _, n) in enumerate(self.GRAPH_STRATA)}
        chosen: list[tuple[int, list, int]] = []
        over_cap: list[list] = []
        draws = rejected = 0
        while any(want.values()):
            draws += 1
            if draws > 20000:
                raise RuntimeError("random graph strata could not be filled")
            edges = sorted({(v, self.pool.randrange(self.GRAPH_VERTICES), self.pool.choice("01"))
                            for v in range(self.GRAPH_VERTICES) for _ in range(2)})
            size = reference.monoid_size(self.GRAPH_VERTICES, edges, "01", self.MONOID_CAP)
            if size is None:
                rejected += 1
                if len(over_cap) < self.OVER_CAP:
                    over_cap.append(edges)
                continue
            for i, (lo, hi, _) in enumerate(self.GRAPH_STRATA):
                if lo <= size < hi and want[i]:
                    want[i] -= 1
                    chosen.append((i, edges, size))
        self.notes["graph_draws"] = draws
        self.notes["graph_draws_over_cap"] = rejected
        graphs = [(relabel_graph(self.rng, self.GRAPH_VERTICES, edges), size)
                  for _, edges, size in sorted(chosen, key=lambda c: c[0])]
        return graphs, [relabel_graph(self.rng, self.GRAPH_VERTICES, e) for e in over_cap]

    def _add_over_cap(self, name, p):
        """A graph whose relation monoid the reference count puts above the
        cap: the right answer is shiftca's budget stop, so the stop path is
        timed without a task failing."""
        def run():
            try:
                tw = build_tower(p, monoid_cap=self.MONOID_CAP)
            except BudgetError:
                return OK, "budget stop"
            return OK, f"built a {len(tw.monoid)}-node monoid"

        def check(value):
            expect(value == "budget stop",
                   f"{name}: {value}; the reference count exceeds cap {self.MONOID_CAP}")

        self.tasks.append(Task(f"{name}/build", "lib", run, check=check))
        self.notes.setdefault("budget_stop_tasks", []).append(f"{name}/build")

    def _add(self, name, p, extra):
        held: dict = {}
        cap = self.MONOID_CAP

        def build():
            held["tw"] = build_tower(p, monoid_cap=cap)
            return held["tw"]

        def release():
            held.clear()

        steps = [
            ("build", build, lambda tw: json.dumps(tw.summary(), sort_keys=True)),
            ("kgroups", lambda: k_groups(held["tw"]), _json),
            ("dimension-group", lambda: dimension_group(held["tw"], k_max=3), _json),
            ("check-I", lambda: condition_I(held["tw"]), _json),
            ("check-star", lambda: condition_star(held["tw"]), _json),
            ("check-aperiodic", lambda: aperiodic_past(held["tw"]), _json),
            ("check-irreducible", lambda: irreducible_past(held["tw"]), _json),
            ("ideals", lambda: ideal_lattice(held["tw"]), _json),
        ]
        for i, (label, fn, digest) in enumerate(steps):
            self.tasks.append(Task(
                f"{name}/{label}", "lib", _lib(fn), digest,
                check=lambda value, label=label: self._check(name, label, value, extra),
                after=release if i == len(steps) - 1 else None))

    def _check(self, name, label, value, extra):
        what = f"{name} {label}"
        frozen = {"golden": GOLDEN_VERDICTS, "even": EVEN_VERDICTS}.get(name)
        if label == "build" and name.startswith("graph"):
            expect(len(value.monoid) == extra,
                   f"{what}: monoid {len(value.monoid)} nodes, reference {extra}")
            return
        if label == "build":
            return
        doc = value.to_json_dict()
        if frozen and label.startswith("check-"):
            check_subset(doc, frozen[label[6:]], what)
        if frozen and label == "ideals":
            check_subset(doc, frozen["ideals"], what)
        if label == "kgroups":
            if name == "golden":
                check_groups(doc, TRIVIAL, TRIVIAL, what)
            elif name == "even":
                check_groups(doc, free(1), free(1), what)
            elif name.startswith("zeros"):
                check_groups(doc, cyclic(extra - 1), TRIVIAL, what)
            elif name.startswith("identity"):
                check_groups(doc, free(self.IDENTITY), free(self.IDENTITY), what)
            expect(doc["exact"], f"{what}: not exact")
        if name.startswith("identity") and label == "ideals":
            n = self.IDENTITY
            expect(len(doc["elements"]) == 2 ** n and len(doc["order"]) == n * 2 ** (n - 1),
                   f"{what}: {len(doc['elements'])} ideals, {len(doc['order'])} covers")
        if name.startswith("identity") and label == "check-I":
            expect(doc["status"] == "fails", f"{what}: {doc['status']}")


# -- relation-checks ---------------------------------------------------------------


class RelationChecks(Workload):
    """Truncated operator relation checks; no monoid, tower or Smith form."""

    name = "relation-checks"
    WORD_BUDGET = 4
    # a 3-symbol SFT whose symbols the seed relabels; relabeling keeps the
    # basis size and the number of checks, so the cost does not depend on
    # the seed while the words and their order do
    THREE = [[0, 0, 1], [1, 0, 1], [1, 1, 0]]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        perm = list(range(3))
        self.rng.shuffle(perm)
        three = [[self.THREE[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        inputs = [("golden", sft_doc(GOLDEN), d) for d in (10, 12, 14)]
        inputs += [("full2", sft_doc(full(2)), 10), ("even", graph_doc(2, EVEN_EDGES), 12),
                   ("three", sft_doc(three, ["a", "b", "c"]), 9)]
        for name, doc, depth in inputs:
            self._add(f"{name}@{depth}", doc, depth)

    def _add(self, name, doc, depth):
        p = Presentation.from_dict(doc)
        if doc["kind"] == "sft":
            edges = reference.sft_edges(doc["matrix"], doc["alphabet"])
            n_vertices = len(doc["matrix"])
        else:
            edges = [(e["from"], e["to"], e["label"]) for e in doc["edges"]]
            n_vertices = doc["vertices"]
        basis = reference.word_count_upto(n_vertices, edges, doc["alphabet"], depth)
        held: dict = {}

        def truncate():
            held["rep"] = build_truncation(p, depth)
            return held["rep"]

        def check_basis(rep):
            expect(rep.size == basis, f"{name}: basis {rep.size}, reference {basis}")

        def check_passed(report):
            bad = [c.to_json_dict() for c in report.checks if not c.passed]
            expect(not bad, f"{name}: {len(bad)} relation checks failed, first {bad[:1]}")

        self.tasks.append(Task(f"{name}/truncate", "lib", _lib(truncate),
                               lambda rep: str(rep.size), check=check_basis))
        steps = [("universal", lambda: check_universal_relations(
            held["rep"], word_budget=self.WORD_BUDGET))]
        if doc["kind"] == "sft":
            steps.append(("ck", lambda: check_ck_relations(held["rep"])))
        for i, (label, fn) in enumerate(steps):
            self.tasks.append(Task(f"{name}/{label}", "lib", _lib(fn), _json,
                                   check=check_passed,
                                   after=held.clear if i == len(steps) - 1 else None))


WORKLOADS = {w.name: w for w in (SftCli, SoficTowers, RelationChecks)}
