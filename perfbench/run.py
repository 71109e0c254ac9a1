"""hkit benchmark: fresh-process `hkit report` runs on fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are the INI files in perfbench/workloads/; the seed goes to
`hkit report --seed`. Every sample is a new process, because users pay for
cold caches (`gauge`'s lru_caches, the word memos in `operators`, the
derivative caches of `ScalarExpr`) on every run.

--trace 0 runs rounds of set-up probes and untraced report processes until
S seconds are spent, and prints the end-to-end metrics (medians over the
samples). --trace 1 runs one untraced report, one traced report
(perfbench/trace_run.py) and the isolated kernels (perfbench/kernels.py),
and prints the per-layer metrics. BENCHMARK.json lists both sets.

Every report is checked: exit code 0, the JSON validates against
docs/report.schema.json, `summary.failed == 0`, the (suite, relation) rows
equal the workload's expected rows, and the sha256 of the JSON with the
timestamp blanked is the same for every sample of one invocation. The last
line of stdout is one JSON object: correct, attempted and failed (report
rows) and metrics. The exit code is 1 when any check fails, 2 when the
checkout holds no hkit sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report.schema.json"
BUILD = ROOT / ".bench_build"    # reports, traces and results of each run

SETUP_PER_ROUND = 3        # set-up probes before each report sample
MIN_SAMPLES = 2            # report samples per --trace 0 run, at least
SAMPLE_TIMEOUT_S = 120.0   # a report process running longer is killed
KERNEL_MIN_S = 3.0         # kernel timing budget when the reports used S up

perf = time.perf_counter

# A fresh interpreter that imports the CLI and parses the workload config,
# and runs no suite. It prints where hkit came from, so a run can never
# measure an installed copy instead of the checkout's sources.
SETUP_CODE = (
    "import sys\n"
    "import hkit\n"
    "from hkit.cli import load_config\n"
    "load_config(sys.argv[1], {'seed': int(sys.argv[2])})\n"
    "print(hkit.__file__)\n"
)

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HKIT_SEED", None)           # it would override --seed
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, env, out_path: Path, err_path: Path,
              timeout: float = SAMPLE_TIMEOUT_S) -> dict:
    """Run cmd to completion; wall seconds as seen by this process, and the
    child's own CPU seconds and peak RSS from wait4."""
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = perf()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err)

        def kill():
            killed.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before the
            # timer is stopped.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf() - t
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "timed_out": killed.is_set(),
            "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0}


def report_digest(text: str) -> str:
    """sha256 of the report with the timestamp value blanked."""
    blanked = _TIMESTAMP.sub('"timestamp": ""', text, count=1)
    return hashlib.sha256(blanked.encode("utf-8")).hexdigest()


def check_report(run: dict, path: Path, expected: set, seed: int,
                 validator) -> dict:
    """Fill in run['ok'], run['why'], run['digest'] and run['exact_rows']."""
    run.update(ok=False, why="", digest=None, exact_rows=None)
    if run["timed_out"]:
        run["why"] = f"timed out after {SAMPLE_TIMEOUT_S:.0f} s"
        return run
    if run["exit"] != 0:
        run["why"] = f"exit code {run['exit']}"
        return run
    try:
        text = path.read_text()
        doc = json.loads(text)
    except (OSError, ValueError) as exc:
        run["why"] = f"unreadable report: {exc}"
        return run
    errors = sorted(validator.iter_errors(doc), key=str)
    if errors:
        run["why"] = f"schema: {errors[0].message}"
        return run
    rows = [(r["suite"], r["relation"]) for r in doc["rows"]]
    if doc["summary"]["failed"] != 0:
        run["why"] = f"{doc['summary']['failed']} rows failed"
    elif len(rows) != len(expected) or set(rows) != expected:
        run["why"] = (f"rows differ from the expected set: missing "
                      f"{sorted(expected - set(rows))[:3]}, extra "
                      f"{sorted(set(rows) - expected)[:3]}")
    elif doc["config"]["seed"] != seed:
        run["why"] = f"report seed {doc['config']['seed']} is not {seed}"
    else:
        run.update(ok=True, digest=report_digest(text),
                   exact_rows=doc["summary"]["exact"])
    return run


class Bench:
    def __init__(self, args, spec: dict):
        self.args = args
        self.spec = spec
        self.ini = HERE / "workloads" / f"{args.workload}.ini"
        expected = json.loads((HERE / "workloads" / "expected_rows.json")
                              .read_text())
        self.expected = {tuple(r) for r in expected[args.workload]}
        self.work = BUILD / "perfbench" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env()
        schema = json.loads(SCHEMA.read_text())
        self.validator = jsonschema.Draft7Validator(schema)
        self.samples: list[dict] = []

    def build(self) -> None:
        """Byte-compile the sources, as a first import would."""
        cmd = [sys.executable, "-m", "compileall", "-q", str(SRC / "hkit")]
        run = run_child(cmd, self.env, self.work / "build.out",
                        self.work / "build.err")
        if run["exit"] != 0:
            raise BenchError(f"compileall failed, see {self.work / 'build.err'}")

    def setup_sample(self, i: int) -> float:
        out = self.work / f"setup{i}.out"
        run = run_child([sys.executable, "-c", SETUP_CODE, str(self.ini),
                         str(self.args.seed)], self.env, out,
                        self.work / f"setup{i}.err")
        if run["exit"] != 0:
            raise BenchError(f"set-up probe failed, see {self.work}")
        origin = Path(out.read_text().strip()).resolve()
        if SRC not in origin.parents:
            raise BenchError(f"hkit imported from {origin}, not {SRC}")
        return run["wall_s"]

    def report_sample(self) -> dict:
        i = len(self.samples)
        path = self.work / f"report{i}.json"
        cmd = [sys.executable, "-m", "hkit", "report", "--config",
               str(self.ini), "--seed", str(self.args.seed), "--format", "json",
               "--out", str(path)]
        run = run_child(cmd, self.env, self.work / f"report{i}.out",
                        self.work / f"report{i}.err")
        check_report(run, path, self.expected, self.args.seed, self.validator)
        self.samples.append(run)
        return run

    def traced_sample(self) -> tuple[dict, dict]:
        path = self.work / "traced_report.json"
        trace_path = self.work / "trace.json"
        cmd = [sys.executable, str(HERE / "trace_run.py"),
               "--config", str(self.ini), "--seed", str(self.args.seed),
               "--report", str(path), "--trace", str(trace_path)]
        run = run_child(cmd, self.env, self.work / "traced.out",
                        self.work / "traced.err")
        check_report(run, path, self.expected, self.args.seed, self.validator)
        self.samples.append(run)
        trace = json.loads(trace_path.read_text()) if run["ok"] else {}
        return run, trace

    def kernels(self, seconds: float) -> dict:
        path = self.work / "kernels.json"
        cmd = [sys.executable, str(HERE / "kernels.py"),
               "--seed", str(self.args.seed), "--seconds", f"{seconds:.3f}",
               "--out", str(path)]
        run = run_child(cmd, self.env, self.work / "kernels.out",
                        self.work / "kernels.err")
        if run["exit"] != 0:
            raise BenchError(f"kernel timings failed, see {self.work}")
        return json.loads(path.read_text())

    # ----- the two modes -------------------------------------------------

    def end_to_end(self, start: float) -> dict:
        # Set-up probes go in rounds, one round before each report sample,
        # so a burst of load on the machine skews at most one round. After
        # MIN_SAMPLES, start another round only while it is expected to
        # finish within the run's seconds.
        setup = []
        while True:
            n = len(setup)
            setup += [self.setup_sample(n + i) for i in range(SETUP_PER_ROUND)]
            run = self.report_sample()
            if not run["ok"]:
                break
            typical = (statistics.median(s["wall_s"] for s in self.samples)
                       + SETUP_PER_ROUND * statistics.median(setup))
            if (len(self.samples) >= MIN_SAMPLES
                    and perf() - start + typical > self.args.seconds):
                break
        ok = [s for s in self.samples if s["ok"]] or self.samples

        def med(key):
            return statistics.median(s[key] for s in ok)

        return {
            "report_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "setup_s": statistics.median(setup),
            "exact_rows": ok[0]["exact_rows"] if ok[0]["ok"] else 0,
        }

    def per_layer(self, start: float) -> dict:
        plain = self.report_sample()
        traced, trace = self.traced_sample()
        if not (plain["ok"] and traced["ok"]):
            return {}
        spent = perf() - start
        kern = self.kernels(max(KERNEL_MIN_S, self.args.seconds - spent))
        metrics = dict(trace["metrics"])
        for name, k in kern["kernels"].items():
            metrics[name] = k["median"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return metrics

    def run(self) -> tuple[bool, dict, dict]:
        self.build()
        start = perf()
        trace = self.args.trace == 1
        raw = self.per_layer(start) if trace else self.end_to_end(start)
        declared = self.spec["per_layer" if trace else "end_to_end"]

        digests = {s["digest"] for s in self.samples if s["ok"]}
        if len(digests) > 1:
            first = self.samples[0]["digest"]
            for s in self.samples:
                if s["ok"] and s["digest"] != first:
                    s.update(ok=False, why="report differs from the first "
                                           "sample's (timestamp blanked)")
        correct = all(s["ok"] for s in self.samples)
        # A layer metric whose function a later change removed or renamed
        # reads 0 and is listed as not measured; an end-to-end metric must
        # always be measured.
        missing = [m["name"] for m in declared if m["name"] not in raw]
        if correct and missing and not trace:
            raise BenchError(f"metrics not produced: {', '.join(missing)}")
        metrics = {m["name"]: {"value": raw.get(m["name"], 0), "unit": m["unit"]}
                   for m in declared}
        n_rows = len(self.expected)
        result = {
            "correct": correct,
            "attempted": n_rows * len(self.samples),
            "failed": n_rows * sum(1 for s in self.samples if not s["ok"]),
            "metrics": metrics,
        }
        details = {
            "workload": self.args.workload, "seed": self.args.seed,
            "trace": self.args.trace, "digest": sorted(digests),
            "not_measured": missing if correct else [],
            "samples": self.samples, "result": result,
        }
        (self.work / f"result-trace{self.args.trace}.json").write_text(
            json.dumps(details, indent=1, sort_keys=True) + "\n")
        return correct, result, details


def print_summary(result: dict, details: dict) -> None:
    samples = details["samples"]
    print(f"hkit benchmark: workload {details['workload']}, seed "
          f"{details['seed']}, trace {details['trace']}, "
          f"{len(samples)} report process(es)")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'fail_share':<34} {share:>16.6g} (failed {result['failed']} "
          f"of {result['attempted']} rows)")
    for s in samples:
        if not s["ok"]:
            print(f"  failed sample: {s['why']}")
    if details["not_measured"]:
        print(f"  not measured (reads 0): {', '.join(details['not_measured'])}")
    for d in details["digest"]:
        print(f"  report sha256 (timestamp blanked): {d}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through run_child, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (SRC / "hkit" / "__init__.py").is_file() or not SCHEMA.is_file():
            raise BenchError(f"no hkit sources or report schema under {ROOT}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = sorted(p.stem for p in (HERE / "workloads").glob("*.ini"))
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; expected "
                             f"one of {', '.join(names)}")
        if args.seed < 0:
            raise BenchError("the seed must be non-negative")
        correct, result, details = Bench(args, spec).run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_summary(result, details)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
