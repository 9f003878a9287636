"""Command line driver: exit codes and output formats."""

import io
import json
import sys

import pytest

import shiftca.cli
import shiftca.conditions
import shiftca.presentations
import shiftca.repcheck
from shiftca.cli import DEFAULT_REPCHECK_DEPTH, main, tower_dump
from shiftca.conditions import (
    aperiodic_past,
    condition_I,
    condition_star,
    ideal_lattice,
    irreducible_past,
)
from shiftca.invariants import bowen_franks, ck_oracle, dimension_group, k_groups
from shiftca.presentations import Presentation
from shiftca.repcheck import (
    RelationReport,
    build_truncation,
    check_ck_relations,
    check_universal_relations,
)
from shiftca.tower import build_tower

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
FULL3 = Presentation.sft(("0", "1", "2"), ((1, 1, 1), (1, 1, 1), (1, 1, 1)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, p in (("gm", GOLDEN), ("full3", FULL3), ("even", EVEN)):
        f = tmp_path / f"{name}.json"
        f.write_text(p.to_json())
        paths[name] = str(f)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kgroups_human_line(inputs, capsys):
    code, out, _ = run(capsys, ["kgroups", "-i", inputs["full3"]])
    assert code == 0
    assert out == "K0 = Z/2, K1 = 0 (exact, level 0)\n"
    code, out, _ = run(capsys, ["kgroups", "-i", inputs["gm"]])
    assert code == 0
    assert out == "K0 = 0, K1 = 0 (exact, level 1)\n"


def test_classes_table(inputs, capsys):
    code, out, _ = run(capsys, ["classes", "-i", inputs["gm"]])
    assert code == 0
    assert out.splitlines() == [
        "level         m",
        "    0         1",
        "    1         2",
        "    2         2",
        "stabilized at 1",
        "  class 0: {'', '0'}",
        "  class 1: {'', '0', '1'}",
    ]


def test_classes_table_builds_no_word_list(inputs, capsys, monkeypatch, tmp_path):
    # the table draws at most eight words of each class's lazy layers, and
    # builds no layer it does not read from
    drawn, built = [], []
    past_layers = shiftca.presentations.past_layers

    def counted(g, tset):
        drawn.append(0)
        built.append(0)

        def count(layer):
            for w in layer:
                drawn[-1] += 1
                yield w

        for layer in past_layers(g, tset):
            built[-1] += 1
            yield count(layer)

    monkeypatch.setattr(shiftca.presentations, "past_layers", counted)
    code, out, _ = run(capsys, ["classes", "-i", inputs["gm"]])
    assert code == 0
    assert out.splitlines()[-2:] == [
        "  class 0: {'', '0'}",
        "  class 1: {'', '0', '1'}",
    ]
    path = tmp_path / "zeros24.json"
    path.write_text(
        Presentation.forbidden_words(("0", "1"), [("0",) * 24]).to_json()
    )
    code, out, _ = run(capsys, ["classes", "-i", str(path)])
    lines = out.splitlines()
    assert code == 0
    assert lines[26:28] == [
        "stabilized at 23",
        "  class 0: {'', '0', '1', '00', '01', '10', '11', '000', "
        "... (16777215 words)}",  # every word of length <= 23
    ]
    assert lines[-1] == (
        "  class 23: {'', '1', '01', '11', '001', '011', '101', '111', "
        "... (8388608 words)}"
    )
    assert len(drawn) == 2 + 24 and max(drawn) == 8
    # lengths 0..3 hold the eight words of every class of 0^24
    assert max(built[2:]) == 4


def test_classes_json_over_word_budget_exit_two(inputs, capsys, monkeypatch):
    # the golden-mean document lists 1 + 5 + 10 = 16 past words
    monkeypatch.setattr(shiftca.cli, "DUMP_WORD_CAP", 15)
    code, out, err = run(capsys, ["classes", "-i", inputs["gm"], "--json"])
    assert (code, out) == (2, "")
    assert err == "error: the tower dump would list 16 past words, more than 15\n"
    monkeypatch.setattr(shiftca.cli, "DUMP_WORD_CAP", 16)
    code, out, _ = run(capsys, ["classes", "-i", inputs["gm"], "--json"])
    assert (code, out) == (0, GOLDEN_CLASSES_JSON)


def test_check_failing_condition_still_exits_zero(inputs, capsys):
    code, out, _ = run(capsys, ["check", "-i", inputs["even"], "--condition", "I"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "FAILS"
    assert lines[1] == "method: exact"
    assert lines[2] == (
        'certificate: {"class": 0, "level": 2, '
        '"point": {"period": "11", "prefix": ""}, "reverified_to_depth": 12}'
    )


def test_check_I_below_stabilization_is_inconclusive(inputs, capsys):
    # the even shift stabilizes at level 2, where a one-point class splits off
    code, out, _ = run(
        capsys, ["check", "-i", inputs["even"], "--condition", "I", "-l", "1"]
    )
    assert code == 0
    assert out.splitlines()[:2] == ["INCONCLUSIVE", "method: bounded search to depth 1"]


def test_check_bounded_method_line(inputs, capsys):
    code, out, _ = run(
        capsys, ["check", "-i", inputs["gm"], "--condition", "aperiodic"]
    )
    assert code == 0
    assert out.splitlines()[0] == "HOLDS"
    assert out.splitlines()[1] == "method: bounded search to depth 1"


def test_ideals_output(inputs, capsys):
    code, out, _ = run(capsys, ["ideals", "-i", inputs["even"]])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 ideals (level 2)"
    assert lines[1:4] == [
        "  [0] classes []",
        "  [1] classes [0]",
        "  [2] classes [0, 1, 2]",
    ]
    assert lines[4] == "covers: 0<1, 1<2"
    assert lines[5].startswith("reading: ")


def test_repcheck_summary_line(inputs, capsys):
    code, out, _ = run(capsys, ["repcheck", "-i", inputs["gm"], "--depth", "6"])
    assert code == 0
    assert out == "all 167 relation checks passed (depth 6, basis 53)\n"


def test_repcheck_over_relation_budget_exit_two(inputs, capsys, monkeypatch):
    # golden mean, depth 6: 82 word pairs with |u| + |v| <= 4, basis 53
    monkeypatch.setattr(shiftca.repcheck, "RELATION_CAP", 82 * 53 - 1)
    code, out, err = run(capsys, ["repcheck", "-i", inputs["gm"], "--depth", "6"])
    assert (code, out) == (2, "")
    assert err == (
        "error: word budget 4 gives more than 81 word pairs on a basis of 53 "
        "words (relation checks cap pairs x basis words at 4345)\n"
    )
    monkeypatch.setattr(shiftca.repcheck, "RELATION_CAP", 82 * 53)
    code, out, _ = run(capsys, ["repcheck", "-i", inputs["gm"], "--depth", "6"])
    assert (code, out) == (0, "all 167 relation checks passed (depth 6, basis 53)\n")


def test_repcheck_names_skipped_symbols(capsys, tmp_path):
    # b never follows anything, so it labels no edge of the graph
    path = tmp_path / "b_never.json"
    path.write_text(Presentation.sft(("a", "b"), ((1, 0), (1, 0))).to_json())
    code, out, _ = run(capsys, ["repcheck", "-i", str(path)])
    assert code == 0
    assert out.splitlines() == [
        "all 32 relation checks passed (depth 6, basis 7)",
        "skipped symbols (never occur): ['b']",
    ]


def test_oracle_ck_line(inputs, capsys):
    code, out, _ = run(capsys, ["oracle-ck", "-i", inputs["full3"]])
    assert code == 0
    assert out == "K0 = Z/2, K1 = 0 (collapsed 1x1, primitive: yes)\n"


def test_dimension_group_stage_lines(inputs, capsys):
    code, out, _ = run(
        capsys, ["dimension-group", "-i", inputs["gm"], "--k-max", "1"]
    )
    assert code == 0
    assert out.splitlines() == [
        "k=0: level 1, rank 2, map [[0, 1], [1, 1]]",
        "k=1: level 2, rank 2, map [[1, 1], [1, 0]]",
    ]


def test_bowen_franks_line(inputs, capsys):
    code, out, _ = run(capsys, ["bf", "-i", inputs["gm"]])
    assert code == 0
    assert out == "Bowen-Franks group: 0\n"


def test_budget_exit_and_allow_partial(inputs, capsys):
    # the kgroups approximation at level 1 reads level 2, so it needs a
    # budget of 2; with 1 it stops without building past the budget
    for cmd, budget, line in (
        ("kgroups", "2", "K0 = Z, K1 = 0 (approximate, level 1)"),
        ("classes", "1", "not stabilized within 1 levels"),
    ):
        argv = [cmd, "-i", inputs["even"], "-l", budget]
        code, out, _ = run(capsys, argv)
        assert code == 2, cmd
        assert line in out.splitlines()
        assert out.splitlines()[-1] == "APPROXIMATE (level 1)"
        code, partial, _ = run(capsys, argv + ["--allow-partial"])
        assert code == 0, cmd
        assert partial == out
    for extra in ([], ["--allow-partial"]):
        argv = ["kgroups", "-i", inputs["even"], "-l", "1"] + extra
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


def test_json_mode_routes_approximate_note_to_stderr(inputs, capsys):
    code, out, err = run(
        capsys, ["kgroups", "-i", inputs["even"], "-l", "2", "--json"]
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["exact"] is False
    assert "APPROXIMATE" in err
    code, out, err = run(
        capsys, ["kgroups", "-i", inputs["even"], "-l", "1", "--json"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_input_errors_exit_one(inputs, capsys, tmp_path):
    code, _, err = run(capsys, ["kgroups", "-i", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["kgroups", "-i", str(bad)])[0] == 1
    notdoc = tmp_path / "notdoc.json"
    notdoc.write_text('{"format": "something-else"}')
    assert run(capsys, ["kgroups", "-i", str(notdoc)])[0] == 1


def _doc(kind, **fields):
    return {"format": "shiftspace-v1", "kind": kind, "alphabet": ["0", "1"], **fields}


def _edge(src, dst, label):
    return {"from": src, "to": dst, "label": label}


MALFORMED = {
    "forbidden_int": _doc("forbidden_words", forbidden=[5]),
    "forbidden_null": _doc("forbidden_words", forbidden=[None]),
    "matrix_of_ints": _doc("sft", matrix=[5, 6]),
    "matrix_of_bools": _doc("sft", matrix=[[True, True], [True, False]]),
    "matrix_float_one": _doc("sft", matrix=[[1.0, 1], [1, 0]]),
    "matrix_float_zero": _doc("sft", matrix=[[1, 1], [1, 0.0]]),
    "label_list": _doc("labeled_graph", vertices=1, edges=[_edge(0, 0, ["0"])]),
    "vertices_bool": _doc("labeled_graph", vertices=True, edges=[_edge(0, 0, "0")]),
    "endpoint_bool": _doc("labeled_graph", vertices=1, edges=[_edge(False, False, "0")]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_exit_one(name, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code, out, err = run(capsys, ["kgroups", "-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["dimension-group", "--k-max", "-1", "--json"],
        ["kgroups", "-l", "-1"],
    ],
)
def test_negative_budgets_exit_one(argv, inputs, capsys):
    code, out, err = run(capsys, argv + ["-i", inputs["gm"]])
    assert (code, out) == (1, "")
    assert err.startswith("error:")


# every command takes -i and --json; the five tower commands take
# --max-level, and of those only classes and kgroups --allow-partial
REMOVED_SLOTS = [
    (cmd, opt)
    for cmd in ("bf", "repcheck", "oracle-ck")
    for opt in ("--max-level", "--monoid-cap", "--allow-partial")
] + [(cmd, "--allow-partial") for cmd in ("dimension-group", "check", "ideals")] + [
    (cmd, "--monoid-cap")
    for cmd in ("classes", "kgroups", "dimension-group", "check", "ideals")
]


@pytest.mark.parametrize("command,option", REMOVED_SLOTS)
def test_options_a_command_does_not_read_exit_one(command, option, inputs, capsys):
    argv = [command, "-i", inputs["gm"], option]
    if option != "--allow-partial":
        argv.append("5")
    if command == "check":
        argv += ["--condition", "I"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: unrecognized arguments: {option}")


def test_k_max_past_max_level_exits_two(inputs, capsys, monkeypatch):
    # stage k reads level k + 2 at least, so the bound is checked first
    built = []
    build = shiftca.cli.build_tower
    monkeypatch.setattr(
        shiftca.cli, "build_tower", lambda *a, **kw: built.append(a) or build(*a, **kw)
    )
    for extra, err_want in (
        (["--k-max", "63"], "error: --k-max 63 reads level 65, past --max-level 64\n"),
        (["-l", "4", "--k-max", "3"], "error: --k-max 3 reads level 5, past --max-level 4\n"),
        (["-l", "4"], "error: --k-max 3 reads level 5, past --max-level 4\n"),
    ):
        code, out, err = run(capsys, ["dimension-group", "-i", inputs["gm"]] + extra)
        assert (code, out, err) == (2, "", err_want)
    assert built == []
    # negative values stay input errors, whichever bound they would break
    for extra in (["-l", "0", "--k-max", "-1"], ["-l", "-1", "--k-max", "5"]):
        code, out, err = run(capsys, ["dimension-group", "-i", inputs["gm"]] + extra)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
    code, out, err = run(capsys, ["dimension-group", "-i", inputs["gm"], "--k-max", "62", "--json"])
    assert (code, err) == (0, "")
    assert [s["k"] for s in json.loads(out)["systems"]] == list(range(63))


def test_usage_errors_exit_one(inputs, capsys):
    assert run(capsys, ["kgroups"])[0] == 1  # no input
    assert run(capsys, ["kgroups", "-i", inputs["gm"], "--bogus"])[0] == 1
    assert run(capsys, ["check", "-i", inputs["gm"], "--condition", "nope"])[0] == 1
    assert run(capsys, ["not-a-command"])[0] == 1


def test_reads_stdin_with_dash(inputs, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN.to_json()))
    code, out, _ = run(capsys, ["kgroups", "-i", "-"])
    assert code == 0
    assert out == "K0 = 0, K1 = 0 (exact, level 1)\n"


GOLDEN_CLASSES_JSON = (
    '{"levels":[{"B":null,"I":[[1],[1]],"M":[],"classes":[[""]],"level":0,'
    '"m":1,"sum_A":[[1],[2]]},{"B":[[-1,0],[1,-1]],"I":[[0,1],[1,0]],'
    '"M":[[0,1]],"classes":[["","0"],["","0","1"]],"level":1,"m":2,'
    '"sum_A":[[1,1],[0,1]]},{"B":null,"I":null,"M":[[0,1],[0,1]],'
    '"classes":[["","0","1","00","01","10"],["","0","00","10"]],"level":2,'
    '"m":2,"sum_A":null}],"monoid_size":5,"schema":"shiftca-tower-v1",'
    '"stabilized_at":1,"t_set_count":2,"top_level":2}\n'
)


def test_json_output_is_deterministic(inputs, capsys):
    a = run(capsys, ["kgroups", "-i", inputs["gm"], "--json"])
    b = run(capsys, ["kgroups", "-i", inputs["gm"], "--json"])
    assert a == b
    doc = json.loads(a[1])
    assert doc == {
        "k0": {"rank": 0, "torsion": []},
        "k1": {"rank": 0, "torsion": []},
        "exact": True,
        "level": 1,
    }
    c = run(capsys, ["classes", "-i", inputs["even"], "--json"])
    d = run(capsys, ["classes", "-i", inputs["even"], "--json"])
    assert c == d
    doc = json.loads(c[1])
    assert doc["stabilized_at"] == 2
    assert [lv["m"] for lv in doc["levels"]] == [1, 2, 3, 3]
    assert run(capsys, ["classes", "-i", inputs["gm"], "--json"]) == (
        0, GOLDEN_CLASSES_JSON, ""
    )


def _golden_repcheck() -> dict:
    """The universal and CK checks merged, as ``repcheck`` reports them."""
    rep = build_truncation(GOLDEN, DEFAULT_REPCHECK_DEPTH)
    rr = check_universal_relations(rep)
    ck = check_ck_relations(rep)
    return RelationReport(
        rr.depth, rr.basis_size, rr.checks + ck.checks, ck.skipped_symbols
    ).to_json_dict()


def _on_golden_tower(report):
    return lambda: report(build_tower(GOLDEN)).to_json_dict()


GOLDEN_REPORTS = {
    "classes": lambda: tower_dump(build_tower(GOLDEN)),
    "kgroups": _on_golden_tower(k_groups),
    "dimension-group": _on_golden_tower(dimension_group),
    "bf": lambda: bowen_franks(GOLDEN).to_json_dict(),
    "check --condition I": _on_golden_tower(condition_I),
    "check --condition star": _on_golden_tower(condition_star),
    "check --condition aperiodic": _on_golden_tower(aperiodic_past),
    "check --condition irreducible": _on_golden_tower(irreducible_past),
    "ideals": _on_golden_tower(ideal_lattice),
    "repcheck": _golden_repcheck,
    "oracle-ck": lambda: ck_oracle(GOLDEN).to_json_dict(),
}


@pytest.mark.parametrize("command", list(GOLDEN_REPORTS))
def test_json_stdout_is_the_library_report(command, inputs, capsys):
    code, out, err = run(capsys, command.split() + ["-i", inputs["gm"], "--json"])
    assert (code, err) == (0, "")
    report = GOLDEN_REPORTS[command]()
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def test_ideals_over_budget_exit_two(capsys, tmp_path, monkeypatch):
    n = 7
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    identity = Presentation.sft(tuple(str(i) for i in range(n)), matrix)
    path = tmp_path / "identity7.json"
    path.write_text(identity.to_json())
    monkeypatch.setattr(shiftca.conditions, "IDEAL_CAP", 100)
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["ideals", "-i", str(path)] + extra)
        assert (code, out) == (2, "")
        assert err == (
            "error: ideal lattice of 7 classes at level 1 has more than 100 elements\n"
        )
