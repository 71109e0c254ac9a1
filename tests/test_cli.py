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


@pytest.mark.parametrize("argv,message", [
    (("--n-points", "10"), "n_points must be at least 64"),
    (("--omega", "-1"), "omega must be non-negative"),
    (("--kind", "coulomb", "--e2", "0"), "coulomb coupling must be positive"),
    (("--levels", "0"), "levels must be at least 1"),
    (("--omega", "nan"), "omega must be finite"),
    (("--omega", "inf"), "omega must be finite"),
    (("--omega", "1e300"), "out of floating-point range"),
    (("--kind", "coulomb", "--e2", "1e300"), "out of floating-point range"),
    (("--kind", "coulomb", "--e2", "1e-300"), "out of floating-point range"),
    (("--kind", "modified", "--coeffs", "0,1,1e400"),
     "out of floating-point range"),
    (("--kind", "modified", "--coeffs", "0,1e300"),
     "out of floating-point range"),
    (("--omega", "1e-300"), "out of floating-point range"),
    (("--omega", "1e-200"), "no outer turning point on the wall scan"),
    (("--kind", "modified", "--coeffs", "0,1e-300"),
     "out of floating-point range"),
], ids=["n-points", "omega", "e2", "levels", "omega-nan", "omega-inf",
        "omega-overflow", "e2-overflow", "e2-underflow", "coeff-overflow",
        "coeff-scale", "omega-tiny", "omega-unconfined", "coeff-tiny"])
def test_radial_bad_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "radial", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ("--omega", "1e-20"),
    ("--omega", "1e-16"),
    ("--kind", "modified", "--coeffs", "0,0.01,1"),
], ids=["omega-small", "omega-1e-16", "quartic-dominated"])
def test_radial_far_scales_solve(capsys, argv):
    """Couplings whose turning point lies past the fixed scan, and a well
    above the modified pilot's harmonic guess, are solved, not refused."""
    code, out, _ = run(capsys, "radial", *argv, "--format", "json")
    assert code == 0
    for level in json.loads(out)["levels"]:
        assert level["rel_error"] is None or level["rel_error"] < 1e-6


@pytest.mark.parametrize("argv,bound", [
    (("--omega", "1e12"), 2.2e-13),
    (("--kind", "coulomb", "--e2", "1e6"), 4.5e-10),
], ids=["omega-large", "e2-large"])
def test_radial_short_scales_solve(capsys, argv, bound):
    """Couplings whose length is far below 1 get a wall in their own length:
    the levels come out as accurate as at unit coupling (2.1e-13 for the
    oscillator, 4.5e-10 for Coulomb at n_points 4096)."""
    code, out, _ = run(capsys, "radial", *argv, "--format", "json")
    assert code == 0
    assert max(level["rel_error"] for level in json.loads(out)["levels"]) <= bound


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


@pytest.mark.parametrize("flag,value", [("--e2", "0"), ("--hbar", "-1"),
                                        ("--mu0", "0")])
def test_spectrum_bad_units_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "spectrum", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be positive" in err


# ----- report --------------------------------------------------------------------

def test_verify_euler_json(capsys):
    code, out, _ = run(capsys, "report", "--suites", "euler")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert {r["suite"] for r in doc["rows"]} == {"euler"}
    assert doc["config"]["suites"] == ["euler"]


@pytest.mark.parametrize("suite", ["spectrum", "radial"])
def test_verify_reaches_spectrum_and_radial(capsys, suite):
    code, out, _ = run(capsys, "report", "--suites", suite)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert doc["rows"]
    assert {r["suite"] for r in doc["rows"]} == {suite}
    assert doc["config"]["suites"] == [suite]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "report", "--suites", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "euler"])
    assert exc.value.code == 2


def _grids(tmp_path, body):
    path = tmp_path / "grids.ini"
    path.write_text("[grids]\n" + body)
    return str(path)


def test_verify_charge_flags(capsys, tmp_path):
    config = _grids(tmp_path, "charge_nodes = 8,8,6,6\n")
    code, out, _ = run(capsys, "report", "--suites", "charge",
                       "--config", config)
    doc = json.loads(out)
    assert doc["config"]["charge_nodes"] == [8, 8, 6, 6]
    assert "charge_radius" not in doc["config"]
    assert code == 0


def test_verify_charge_below_exact_nodes_reports_truncation(capsys, tmp_path):
    """One theta node integrates sin^2(theta) as 1, not 2/3: the run
    completes, and the node-doubling row carries the nonzero truncation
    defect and fails."""
    config = _grids(tmp_path, "charge_nodes = 1,16,8,8\n")
    code, out, _ = run(capsys, "report", "--suites", "charge",
                       "--config", config)
    doc = json.loads(out)
    assert doc["config"]["charge_nodes"] == [1, 16, 8, 8]
    rows = {r["relation"]: r for r in doc["rows"]}
    assert rows["node-doubling"]["residual"] > 0
    assert not rows["node-doubling"]["passed"]
    assert code == 1


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_non_finite_charge_radius_exits_2(capsys, tmp_path, radius):
    """No row reads a sphere radius, as the exact charge rows have none:
    [grids] charge_radius is an unknown key whatever its value, and the run
    stops before any suite."""
    config = _grids(tmp_path, f"charge_radius = {radius}\n")
    code, out, err = run(capsys, "report", "--suites", "charge",
                         "--config", config)
    assert code == 2
    assert out == ""
    assert "charge_radius" in err


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
    _, out, _ = run(capsys, "report", "--suites", "euler")
    assert json.loads(out)["config"]["seed"] == 321


def test_flag_beats_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("HKIT_SEED", "321")
    _, out, _ = run(capsys, "report", "--suites", "euler",
                    "--seed", "7")
    assert json.loads(out)["config"]["seed"] == 7


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "report", "--suites", "euler",
                         "--config", "/no/such.ini")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("body,key", [
    ("[grids]\nterm_budget = 5000\n", "term_budget"),
    ("[units]\nmuo = 3/2\n", "muo"),
    ("[run]\nsuite = euler\n", "suite"),
    ("[tolerances]\nself_duality = 1e-10\n", "unknown tolerance 'self_duality'"),
    ("[tolerances]\ntrig_bracket = 1e-7\n", "unknown tolerance 'trig_bracket'"),
    ("[tolerances]\nangular_table = 1e-10\n", "unknown tolerance 'angular_table'"),
    ("[tolerances]\ngauge_transform = 1e-10\n",
     "unknown tolerance 'gauge_transform'"),
    ("[tolerances]\ncharge = 1e-10\n", "unknown tolerance 'charge'"),
    ("[grids]\ncharge_radius = 1\n", "charge_radius"),
])
def test_unknown_config_key(capsys, tmp_path, body, key):
    path = tmp_path / "run.ini"
    path.write_text(body)
    code, out, err = run(capsys, "report", "--suites", "spectrum",
                         "--config", str(path))
    assert code == 2
    assert out == ""
    assert key in err


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
    code, out, _ = run(capsys, "report", "--suites", "euler",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["summary"]["failed"] == 0


@pytest.mark.parametrize("argv", [
    ("transform", "--D", "4", "--u", "1/2,0,1/3,0"),
    ("radial", "--levels", "1"),
    ("spectrum", "--levels", "1"),
    ("report", "--suites", "euler"),
], ids=["transform", "radial", "spectrum", "report"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_out_that_cannot_be_written_exits_2(capsys, tmp_path, argv, where):
    target = tmp_path / "no-such-dir" / "out" if where == "missing-dir" \
        else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_verify_text_summary_line(capsys):
    code, out, _ = run(capsys, "report", "--suites", "casimir",
                         "--format", "text")
    assert code == 0
    assert "checks passed" in out.splitlines()[-1]
