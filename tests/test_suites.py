"""Suite orchestration: the worker pool behind jobs > 1."""

from __future__ import annotations

import json
import os
from concurrent.futures import Future
from dataclasses import replace

from hkit import suites
from hkit.cli import main
from hkit.config import SuiteConfig
from hkit.report import MODE_EXACT, CheckReport

CHEAP = ("euler", "gauge", "spectrum", "radial")


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
