"""Command line driver: exit codes, output formats, and the dump cache."""

import io
import json
import sys

import pytest

from shiftca.cli import main
from shiftca.presentations import Presentation

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
    code, out, _ = run(capsys, ["kgroups", "-i", inputs["even"], "-l", "1"])
    assert code == 2
    assert "APPROXIMATE (level 1)" in out
    assert "(approximate, level 1)" in out
    code, out, _ = run(
        capsys, ["kgroups", "-i", inputs["even"], "-l", "1", "--allow-partial"]
    )
    assert code == 0
    assert "APPROXIMATE (level 1)" in out


def test_json_mode_routes_approximate_note_to_stderr(inputs, capsys):
    code, out, err = run(
        capsys, ["kgroups", "-i", inputs["even"], "-l", "1", "--json"]
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["exact"] is False
    assert "APPROXIMATE" in err


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


def test_cache_round_trip(inputs, capsys, monkeypatch, tmp_path):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("SHIFTCA_CACHE_DIR", str(cache_dir))
    cold = run(capsys, ["classes", "-i", inputs["gm"], "--json"])
    files = list(cache_dir.glob("*.json"))
    assert len(files) == 1
    warm = run(capsys, ["classes", "-i", inputs["gm"], "--json"])
    assert warm == cold
    monkeypatch.delenv("SHIFTCA_CACHE_DIR")
    bare = run(capsys, ["classes", "-i", inputs["gm"], "--json"])
    assert bare == cold


def test_kgroups_served_from_cached_dump(inputs, capsys, monkeypatch, tmp_path):
    plain = run(capsys, ["kgroups", "-i", inputs["even"], "--json"])
    monkeypatch.setenv("SHIFTCA_CACHE_DIR", str(tmp_path / "cache"))
    run(capsys, ["classes", "-i", inputs["even"], "--json"])  # seeds the dump
    served = run(capsys, ["kgroups", "-i", inputs["even"], "--json"])
    assert served == plain


def test_corrupt_cache_is_rebuilt(inputs, capsys, monkeypatch, tmp_path):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("SHIFTCA_CACHE_DIR", str(cache_dir))
    cold = run(capsys, ["classes", "-i", inputs["gm"], "--json"])
    [entry] = cache_dir.glob("*.json")
    entry.write_text("garbage{{{")
    again = run(capsys, ["classes", "-i", inputs["gm"], "--json"])
    assert again == cold
    assert json.loads(entry.read_text())["schema"] == "shiftca-tower-v1"


def test_cache_key_separates_budgets(inputs, capsys, monkeypatch, tmp_path):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("SHIFTCA_CACHE_DIR", str(cache_dir))
    run(capsys, ["classes", "-i", inputs["even"], "--json"])
    run(capsys, ["classes", "-i", inputs["even"], "-l", "1", "--json",
                 "--allow-partial"])
    assert len(list(cache_dir.glob("*.json"))) == 2
