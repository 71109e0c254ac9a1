"""Suite orchestration: the worker pool behind jobs > 1, and the libraries
a run loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hkit import suites, symmetry, transforms
from hkit.cli import main
from hkit.config import DEFAULT_TOLERANCES, SUITES, SuiteConfig
from hkit.operators import OperatorExpr
from hkit.report import MODE_EXACT, MODE_NUMERIC, CheckReport, to_json

CHEAP = ("euler", "gauge", "spectrum", "radial")


def test_suite_names_have_one_source_of_truth():
    """The runners, the config and both schema enums list the same suites
    in the same order."""
    assert tuple(suites.SUITE_RUNNERS) == SUITES
    schema = json.loads((Path(__file__).resolve().parents[1] / "docs"
                         / "report.schema.json").read_text())
    props = schema["properties"]
    assert tuple(props["config"]["properties"]["suites"]["items"]["enum"]) == SUITES
    assert tuple(props["rows"]["items"]["properties"]["suite"]["enum"]) == SUITES


def test_every_tolerance_is_read_by_a_suite():
    """The runners read exactly the keys of DEFAULT_TOLERANCES, so a retired
    check cannot leave its tolerance behind."""
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    cfg = SuiteConfig(tolerances=Recording(DEFAULT_TOLERANCES))
    for runner in suites.SUITE_RUNNERS.values():
        runner(cfg)
    assert read == set(DEFAULT_TOLERANCES)


def test_jobs_2_rows_equal_jobs_1():
    cfg = SuiteConfig(suites=CHEAP)
    serial = suites.run_suite(cfg)
    pooled = suites.run_suite(replace(cfg, jobs=2))
    assert pooled.rows == serial.rows
    assert pooled.summary == serial.summary
    assert [r.suite for r in pooled.rows if r.relation == "suite-crash"] == []


class _RecordingExecutor:
    """Runs each task inline and records how the pool was asked for."""

    made: list[dict] = []

    def __init__(self, max_workers, mp_context):
        self.made.append({"max_workers": max_workers,
                          "start_method": mp_context.get_start_method()})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_workers_never_outnumber_suites(monkeypatch):
    monkeypatch.setattr(suites, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "made", [])
    for name in ("euler", "gauge"):
        monkeypatch.setitem(suites.SUITE_RUNNERS, name,
                            lambda cfg, name=name: [CheckReport(
                                name, "stub", "", MODE_EXACT, 0.0, True)])
    report = suites.run_suite(SuiteConfig(suites=("euler", "gauge"),
                                          jobs=1000))
    assert _RecordingExecutor.made == [{"max_workers": 2,
                                        "start_method": "fork"}]
    assert [r.suite for r in report.rows] == ["euler", "gauge"]


def test_dead_worker_becomes_crash_row(monkeypatch, tmp_path):
    # Forked workers inherit the patched runner table.
    monkeypatch.setitem(suites.SUITE_RUNNERS, "euler", lambda cfg: os._exit(3))
    out = tmp_path / "report.json"
    code = main(["report", "--suites", "euler,gauge", "--jobs", "2",
                 "--format", "json", "--out", str(out)])
    assert code == 1
    rows = json.loads(out.read_text())["rows"]
    crash = [r for r in rows if r["suite"] == "euler"]
    assert len(crash) == 1
    assert crash[0]["relation"] == "suite-crash"
    assert not crash[0]["passed"]
    assert crash[0]["detail"].startswith("BrokenProcessPool: ")
    # gauge either finished before the pool broke or lost its result too.
    assert {r["suite"] for r in rows} == {"euler", "gauge"}


def test_crashed_suite_is_a_numeric_row(monkeypatch):
    """A crash proves nothing, so it is not counted as an exact row."""
    def crash(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(suites.SUITE_RUNNERS, "euler", crash)
    report = suites.run_suite(SuiteConfig(suites=("euler",)))
    (row,) = report.rows
    assert (row.relation, row.mode, row.residual, row.passed) == (
        "suite-crash", MODE_NUMERIC, None, False)
    assert row.detail == "RuntimeError: boom"
    assert report.summary["exact"] == 0
    assert report.summary["numeric"] == 1


def test_every_suite_trims_the_heap_after_it(monkeypatch):
    """The malloc heap is trimmed after each suite, a crashed one too."""
    calls = []
    monkeypatch.setattr(suites, "_MALLOC_TRIM", calls.append)
    monkeypatch.setitem(suites.SUITE_RUNNERS, "euler", lambda cfg: 1 / 0)
    suites.run_suite(SuiteConfig(suites=("euler", "spectrum")))
    assert calls == [0, 0]


def _euler_exact_rows(seed):
    return [r for r in suites.run_euler(SuiteConfig(seed=seed))
            if r.mode == MODE_EXACT]


def test_euler_exact_rows_do_not_depend_on_the_seed():
    rows = _euler_exact_rows(11)
    assert [r.relation for r in rows] == [
        "norm-identity-D2", "bilinear-orthogonality-D2",
        "norm-identity-D4", "bilinear-orthogonality-D4",
        "norm-identity-D8", "bilinear-orthogonality-D8",
        "display-matrix-audit"]
    assert rows == _euler_exact_rows(12)
    assert all(r.passed for r in rows)
    assert {r.detail for r in rows if r.relation.startswith("norm-")} == {
        "identically zero as a polynomial in u"}


@pytest.mark.parametrize("component", range(5))
def test_perturbed_hurwitz_component_fails_norm_identity_d8(monkeypatch,
                                                            component):
    hurwitz = transforms.hurwitz_map

    def perturbed(u):
        x = list(hurwitz(u))
        x[component] = x[component] + u[0] * u[1]
        return tuple(x)

    monkeypatch.setattr(transforms, "hurwitz_map", perturbed)
    verdicts = {r.relation: r.passed for r in _euler_exact_rows(11)
                if r.relation.startswith("norm-")}
    assert verdicts == {"norm-identity-D2": True, "norm-identity-D4": True,
                        "norm-identity-D8": False}


@pytest.mark.parametrize("seed", [20240814, 11, 7, 12345])
def test_round_trip_row_matches_the_pointwise_round_trip(seed):
    """The round-trip row sends its 1000 points through
    `hyperspherical_inverse` as arrays, and its residual is the one the
    same points give one at a time, bit for bit."""
    rng = np.random.default_rng(seed)
    worst, count = 0.0, 0
    while count < 1000:
        x = rng.uniform(-2.0, 2.0, 5)
        if np.hypot(x[1], x[2]) < 0.1 or np.hypot(x[3], x[4]) < 0.1:
            continue
        count += 1
        back = transforms.hyperspherical_inverse(transforms.hyperspherical(x))
        worst = max(worst, float(np.max(np.abs(np.asarray(back) - x))))
    (row,) = [r for r in suites.run_euler(SuiteConfig(seed=seed))
              if r.relation == "hyperspherical-round-trip"]
    assert row.residual == worst


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_failed_exact_casimir_row_is_valid_json(monkeypatch):
    """A failed exact Casimir row carries a null residual, never NaN."""
    jsonschema = pytest.importorskip("jsonschema")
    monkeypatch.setattr(symmetry, "casimir_c2_residual",
                        lambda ops: OperatorExpr.identity())
    monkeypatch.setattr(symmetry, "casimir_c3_residual",
                        lambda ops: OperatorExpr.zero())
    monkeypatch.setattr(symmetry, "c4_applied_residual", lambda ops: 0.0)
    text = to_json(suites.run_suite(SuiteConfig(suites=("casimir",))))
    doc = json.loads(text, parse_constant=_reject_constant)
    schema_path = (Path(__file__).resolve().parents[1] / "docs"
                   / "report.schema.json")
    jsonschema.validate(doc, json.loads(schema_path.read_text()))
    c2 = next(r for r in doc["rows"] if r["relation"] == "c2-cleared")
    assert c2["passed"] is False
    assert c2["residual"] is None
    assert doc["summary"]["failed"] == 1


_IMPORT_PROBE = """
import json
import sys
import hkit.cli
from hkit.config import SUITES, SuiteConfig
from hkit.suites import run_suite

def scipy_modules():
    return json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

run_suite(SuiteConfig(suites=("algebra", "casimir")))
print(scipy_modules())
run_suite(SuiteConfig(suites=("radial",)))
print(scipy_modules())
"""


def test_only_the_radial_solver_loads_scipy():
    """A fresh process that imports the CLI and runs algebra and casimir
    loads no scipy module; the radial suite then loads scipy.linalg, and
    neither scipy.interpolate nor scipy.sparse."""
    src = str(Path(suites.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout.splitlines()
    assert json.loads(out[0]) == []
    after_radial = json.loads(out[1])
    assert "scipy.linalg" in after_radial
    assert not [m for m in after_radial
                if m.startswith(("scipy.interpolate", "scipy.sparse"))]
