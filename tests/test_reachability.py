"""Every function in src/hkit is one that `hkit` runs.

A subprocess sets a profile hook before `import hkit`, so module-level
calls count, and runs the CLI paths in RUNS at jobs 1, so no work runs in
a forked worker the hook cannot see.  Each function defined in src/hkit
that no run enters must be listed in ALLOWED with the reason it stays.
An allowlisted function that a run enters, or that no longer exists,
fails the test as well.  A function that only tests call belongs in
tests/ (see tests/reference.py), not in src/.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ROOT / "perfbench" / "workloads"

RUNS = [
    ["report", "--config", str(WORKLOADS / "report-default.ini"), "--seed", "11"],
    ["report", "--config", str(WORKLOADS / "numeric-fine.ini"), "--seed", "11"],
    ["report", "--config", str(WORKLOADS / "algebra-units.ini"), "--seed", "11",
     "--jobs", "1"],
    ["report", "--suites", "spectrum", "--format", "csv"],
    ["report", "--suites", "spectrum", "--format", "text"],
    ["transform", "--u", "1,0,0,0,0,0,0,0"],
    ["transform", "--D", "4", "--u", "1,2,3,4", "--format", "json"],
    ["radial", "--kind", "oscillator", "--format", "json"],
    ["radial", "--kind", "coulomb", "--format", "csv"],
    ["radial", "--kind", "modified", "--coeffs", "0,0.5,0.01"],
    ["spectrum"],
    ["spectrum", "--format", "json"],
]

# "module.qualname" of a function no run enters: why it stays in src/.
ALLOWED = {
    "suites._crash_rows": "turns a suite that raises into a failed row; "
                          "tests/test_suites.py crashes one",
    "exact.ScalarExpr.axis_pow": "constructor that tests build "
                                 "expressions with",
    "operators.OperatorExpr.deriv": "constructor that tests build "
                                    "operators with",
    "operators.OperatorExpr.__add__": "operator syntax that tests use",
    "operators.OperatorExpr.__sub__": "operator syntax that tests use",
    "operators.OperatorExpr.__matmul__": "perfbench/kernels.py (mm_pair) "
                                         "composes with @",
    "operators.OperatorExpr.term_count": "perfbench/kernels.py (mm_pair) "
                                         "reports it",
    "operators.OperatorExpr.__repr__": "pytest prints it when an assertion "
                                       "on an operator fails",
}

_PROBE = """
import contextlib, io, json, os, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
import hkit
from hkit.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
pkg = os.path.dirname(hkit.__file__)
print(json.dumps({"hkit": hkit.__file__, "codes": codes,
                  "entered": sorted(e for e in entered if e[0].startswith(pkg))}))
"""


def _functions() -> dict[str, tuple[Path, set[int]]]:
    """Every function defined in src/hkit: "module.qualname" -> (file, the
    lines its code object may start on).  On Python 3.11 that of a
    decorated function is the line of its first decorator."""
    out = {}
    for path in sorted((SRC / "hkit").glob("*.py")):
        todo = [(ast.parse(path.read_text()), path.stem)]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        out[name] = (path.resolve(), {child.lineno} | {
                            d.lineno for d in child.decorator_list})
                    todo.append((child, name))
                else:
                    todo.append((child, prefix))
    return out


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(RUNS)],
                          env=env, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_every_src_function_runs_or_is_allowlisted(probe):
    assert Path(probe["hkit"]).resolve().parent == (SRC / "hkit").resolve()
    assert probe["codes"] == [0] * len(RUNS)
    entered = {(Path(f).resolve(), line) for f, line in probe["entered"]}
    functions = _functions()
    never = {name for name, (path, lines) in functions.items()
             if not any((path, line) in entered for line in lines)}
    unlisted = sorted(never - ALLOWED.keys())
    assert not unlisted, (f"no hkit run enters {unlisted}: delete them, move "
                          "them into tests/, or allowlist them with a reason")
    gone = sorted(ALLOWED.keys() - functions.keys())
    assert not gone, f"allowlisted, but no longer defined in src/hkit: {gone}"
    entered_allowed = sorted(ALLOWED.keys() - never - set(gone))
    assert not entered_allowed, (
        f"allowlisted, but an hkit run enters {entered_allowed}")
