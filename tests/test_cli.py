"""Command-line interface: subcommand output shapes and the exit contract."""

from __future__ import annotations

import json

import pytest

from hkit import __version__
from hkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- transform ---------------------------------------------------------------

def test_transform_text(capsys):
    code, out, err = run(capsys, "transform", "--D", "4",
                         "--u", "1/2,0,1/3,0")
    assert code == 0
    assert "u = (1/2, 0, 1/3, 0)" in out
    assert "x = (" in out
    assert "norm defect x.x - (u.u)^2 = 0" in out


def test_transform_json_multiple_points(capsys):
    code, out, _ = run(capsys, "transform", "--D", "2", "--format", "json",
                       "--u", "3,4", "--u", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == 2
    assert doc["points"][0]["x"] == ["-7", "24"]
    assert doc["points"][1]["x"] == ["1", "0"]
    assert all(p["defect"] == "0" for p in doc["points"])


def test_transform_wrong_length(capsys):
    code, _, err = run(capsys, "transform", "--D", "8", "--u", "1,2,3")
    assert code == 2
    assert "error:" in err


def test_transform_bad_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--u", "1,zebra"])
    assert exc.value.code == 2


# ----- radial -------------------------------------------------------------------

def test_radial_text(capsys):
    code, out, _ = run(capsys, "radial", "--kind", "oscillator", "--D", "8",
                       "--L", "0", "--omega", "1", "--levels", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("oscillator problem: dim=8")
    assert len(lines) == 5  # header, column line, three levels


def test_radial_csv(capsys):
    code, out, _ = run(capsys, "radial", "--kind", "coulomb", "--d", "5",
                       "--l", "0", "--levels", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,energy,reference,rel_error,convergence"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) + 0.125) < 1e-5


def test_radial_json_modified(capsys):
    code, out, _ = run(capsys, "radial", "--kind", "modified",
                       "--coeffs", "0,1/2", "--levels", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "modified"
    level = doc["levels"][0]
    assert level["reference"] is None
    assert abs(level["energy"] - 4.0) < 1e-5


def test_radial_modified_needs_coeffs(capsys):
    code, _, err = run(capsys, "radial", "--kind", "modified")
    assert code == 2
    assert "--coeffs" in err


def test_radial_half_integer_l(capsys):
    code, out, _ = run(capsys, "radial", "--kind", "coulomb", "--l", "1/2",
                       "--levels", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["levels"][0]["energy"] + 0.08) < 1e-5


# ----- spectrum -----------------------------------------------------------------

def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "--T", "1/2", "--levels", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("T = 1/2")
    assert len(lines) == 4
    assert lines[2].split() == ["1", "-2/25", "1/2", "15/4", "90", "315/16"]


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--T", "0", "--levels", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == "0"
    assert [lv["N"] for lv in doc["levels"]] == [0, 2, 4]
    assert doc["levels"][0]["energy"] == "-1/8"
    assert doc["levels"][1]["energy"] == "-1/18"


def test_spectrum_bad_label(capsys):
    code, _, err = run(capsys, "spectrum", "--T", "1/3")
    assert code == 2
    assert "error:" in err


# ----- verify / report -----------------------------------------------------------

def test_verify_euler_json(capsys):
    code, out, _ = run(capsys, "verify", "euler", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert {r["suite"] for r in doc["rows"]} == {"euler"}
    assert doc["config"]["suites"] == ["euler"]


def test_verify_single_relation(capsys):
    code, out, _ = run(capsys, "verify", "algebra", "--relation", "pi-x",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["relation"] == "pi-x"
    assert doc["rows"][0]["passed"] is True


@pytest.mark.parametrize("suite", ["spectrum", "radial"])
def test_verify_reaches_spectrum_and_radial(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert doc["rows"]
    assert {r["suite"] for r in doc["rows"]} == {suite}
    assert doc["config"]["suites"] == [suite]


def test_verify_relation_requires_algebra(capsys):
    code, _, err = run(capsys, "verify", "euler", "--relation", "pi-x")
    assert code == 2
    assert "algebra" in err


def test_verify_unknown_relation(capsys):
    code, _, err = run(capsys, "verify", "algebra", "--relation", "x-x")
    assert code == 2
    assert "unknown relation" in err


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_charge_flags(capsys):
    code, out, _ = run(capsys, "verify", "charge", "--nodes", "8,8,6,6",
                       "--radius", "2.0", "--format", "json")
    doc = json.loads(out)
    assert doc["config"]["charge_nodes"] == [8, 8, 6, 6]
    assert doc["config"]["charge_radius"] == 2.0
    assert code == 0


def test_report_spectrum_deterministic(capsys):
    strip = lambda text: [l for l in text.splitlines()
                          if '"timestamp"' not in l]
    _, first, _ = run(capsys, "report", "--suites", "spectrum",
                      "--seed", "11")
    _, second, _ = run(capsys, "report", "--suites", "spectrum",
                       "--seed", "11")
    assert strip(first) == strip(second)
    doc = json.loads(first)
    assert doc["config"]["seed"] == 11
    assert doc["version"] == __version__


def test_env_seed_flows_into_echo(capsys, monkeypatch):
    monkeypatch.setenv("HKIT_SEED", "321")
    _, out, _ = run(capsys, "verify", "euler", "--format", "json")
    assert json.loads(out)["config"]["seed"] == 321


def test_flag_beats_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("HKIT_SEED", "321")
    _, out, _ = run(capsys, "verify", "euler", "--format", "json",
                    "--seed", "7")
    assert json.loads(out)["config"]["seed"] == 7


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "verify", "euler", "--config", "/no/such.ini")
    assert code == 2
    assert "not found" in err


def test_config_file_suites(capsys, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 3\n[units]\ne2 = 2\n")
    code, out, _ = run(capsys, "report", "--suites", "spectrum",
                       "--config", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 3
    assert doc["config"]["units"]["e2"] == "2"
    assert doc["config"]["suites"] == ["spectrum"]


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "verify", "euler", "--format", "json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["summary"]["failed"] == 0


def test_verify_text_summary_line(capsys):
    code, out, _ = run(capsys, "verify", "casimir")
    assert code == 0
    assert "checks passed" in out.splitlines()[-1]
