"""Suite orchestration: the worker pool behind jobs > 1, and the libraries
a run loads."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from operator import add
from pathlib import Path

import numpy as np
import pytest

from hkit import exact, gauge, operators, suites, symmetry, transforms
from hkit.cli import main
from hkit.config import _SECTION_KEYS, DEFAULT_TOLERANCES, SUITES, SuiteConfig
from hkit.operators import OperatorExpr
from hkit.report import MODE_EXACT, MODE_NUMERIC, CheckReport, to_json
from hkit.transforms import IntPoly

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
    """The runners read exactly the keys of DEFAULT_TOLERANCES and the
    [grids] keys, so a retired check cannot leave its tolerance or its grid
    behind."""
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    class RecordingGrids(SuiteConfig):
        def __getattribute__(self, name):
            if name in _SECTION_KEYS["grids"]:
                read.add(name)
            return super().__getattribute__(name)

    cfg = RecordingGrids(tolerances=Recording(DEFAULT_TOLERANCES))
    read.clear()  # validation reads every grid
    for runner in suites.SUITE_RUNNERS.values():
        runner(cfg)
    assert read == set(DEFAULT_TOLERANCES) | _SECTION_KEYS["grids"]


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


def test_gauge_rows_do_not_depend_on_the_seed():
    """Nothing in the gauge suite samples, so every row is exact and the
    seed cannot move one."""
    rows = suites.run_gauge(SuiteConfig(seed=11))
    assert rows == suites.run_gauge(SuiteConfig(seed=12))
    assert all(r.mode == MODE_EXACT and r.passed for r in rows)


def _drop_a_cross_term(monkeypatch):
    """IntPoly products of two sums lose the product of their first terms."""
    mul = IntPoly.__mul__

    def mutant(self, other):
        out = mul(self, other)
        if isinstance(other, int) or len(self.terms) < 2 or len(other.terms) < 2:
            return out
        (ea, ca), (eb, cb) = (next(iter(p.terms.items())) for p in (self, other))
        return out - IntPoly(self.nvars, {tuple(map(add, ea, eb)): ca * cb})

    monkeypatch.setattr(IntPoly, "__mul__", mutant)


def _wrong_circle_rule(monkeypatch):
    """s^2 -> c^2 - 1 in the normal form of `IntPoly.on_circles`."""
    monkeypatch.setattr(transforms, "_sin_squared", lambda c: c * c - 1)


def _diff_without_exponent(monkeypatch):
    """d x^n / dx = x^(n-1): the factor n is dropped, so terms free of x
    turn into x^-1 instead of vanishing."""
    monkeypatch.setattr(IntPoly, "diff", lambda self, k: IntPoly(
        self.nvars, {e[:k] + (e[k] - 1,) + e[k + 1:]: c for e, c in self.terms.items()}))


@pytest.mark.parametrize("mutant", [_drop_a_cross_term, _wrong_circle_rule,
                                    _diff_without_exponent],
                         ids=["cross-term", "circle-rule", "diff-factor"])
def test_intpoly_mutant_fails_an_exact_row(monkeypatch, mutant):
    """IntPoly decides the euler norm, bilinear and audit rows, the trig
    bracket, the chart transition and the angular listing; a broken
    polynomial kernel must fail the in-process report of their suites.
    Each failed row is an exact row read false or, where the mutant leaves
    a negative power of a circle's sin, a suite crash on IntPoly refusing
    the power (the diff-factor mutant fails gauge that way)."""
    mutant(monkeypatch)
    report = suites.run_suite(SuiteConfig(suites=("euler", "gauge", "field")))
    failed = [r for r in report.rows if not r.passed]
    assert failed
    assert all(r.mode == MODE_EXACT or r.detail.startswith("ValueError: IntPoly **")
               for r in failed)


# The operator kernel decides the gauge, field and algebra rows: each sum
# of products goes through `_accumulate` and `nonzero_segments`.
OPERATOR_SUITES = SuiteConfig(suites=("gauge", "field", "algebra"))


def _ignore_imaginary_numerators(monkeypatch):
    """The zero test reads the real numerators only."""
    nonzero = exact.nonzero_segments
    monkeypatch.setattr(operators, "nonzero_segments",
                        lambda seg, tk, re, im, sign: nonzero(seg, tk, re, 0 * im, sign))


def _drop_a_leibniz_row(monkeypatch):
    """d^d (c g) loses its last Leibniz row, (d^d c) g.  The wrapper copies
    the rows, so the `_LEIBNIZ` memo keeps the right ones."""
    leibniz = operators._leibniz
    monkeypatch.setattr(operators, "_leibniz",
                        lambda d: leibniz(d)[:-1] if any(d) else leibniz(d))


def _rewrite_r_squared_with_the_wrong_sign(monkeypatch):
    """The zero test rewrites r^2 to -x.x: `nonzero_segments` rebuilt from
    its own source with the rewritten copies negated."""
    source = inspect.getsource(exact.nonzero_segments)
    for part in ("re", "im"):
        copies = f"np.repeat({part}[hot], 5)"
        assert source.count(copies) == 1
        source = source.replace(copies, "-" + copies)
    namespace = dict(vars(exact))
    exec(source, namespace)
    monkeypatch.setattr(operators, "nonzero_segments", namespace["nonzero_segments"])


@pytest.mark.parametrize("mutant", [
    pytest.param(_ignore_imaginary_numerators, marks=pytest.mark.xfail(
        strict=True, reason="every exact row is a zero test of a true identity, "
        "so a zero test that misses nonzero values fails none of them")),
    _drop_a_leibniz_row, _rewrite_r_squared_with_the_wrong_sign,
], ids=["imaginary-numerators", "leibniz-row", "radius-rewrite-sign"])
def test_operator_kernel_mutant_fails_an_exact_row(monkeypatch, mutant):
    """A broken operator kernel must fail the in-process report of the
    suites it decides, as exact rows read false.  No cache hides a mutant:
    the suites build their operator tables afresh, and the cached field
    tensors are made without the kernel."""
    mutant(monkeypatch)
    failed = [r for r in suites.run_suite(OPERATOR_SUITES).rows if not r.passed]
    assert failed
    assert all(r.mode == MODE_EXACT for r in failed)


def test_python_int_numerators_give_the_same_rows(monkeypatch):
    """With the int64 bound at 0 every term table widens to Python ints, a
    path no CLI run takes; the rows of the suites the kernel decides must
    not change.  The caches of derivatives and field tensors are cleared
    first, so those are made on the widened path too."""
    want = suites.run_suite(OPERATOR_SUITES).rows
    widen, widened = exact.widen, []

    def spy(bound, *arrays):
        out = widen(bound, *arrays)
        widened.append(out[0].dtype == object)
        return out

    for module in (exact, operators):
        monkeypatch.setattr(module, "widen", spy)
    monkeypatch.setattr(exact, "_INT64_SAFE", 0.0)
    for cached in vars(gauge).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    for e in (*exact.X, exact.R):
        e._dcache.clear()
    assert suites.run_suite(OPERATOR_SUITES).rows == want
    assert widened and all(widened)


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
