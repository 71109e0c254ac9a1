"""Traced `hkit report`: wraps the public functions of each hkit module.

Run as its own process:

    PYTHONPATH=src python3 perfbench/trace_run.py --config INI --seed N \
        --report OUT.json --trace TRACE.json

The program runs exactly as `hkit report --config INI --seed N --format json
--out OUT.json`, but the calls into each layer (the modules under
`src/hkit`) go through wrappers installed here. Nothing under `src/` is
edited. Each wrapper is installed under every name a caller looks the
function up by: `suites` binds `build_operators`, `casimir_check` and
`topological_charge` through `from ... import`, so patching only the
defining module would miss those calls.

Timing wrappers keep, per thread, a stack of open calls so that self time
(the call minus the calls it made into other wrapped functions) and the
time of the outermost call of each layer can be computed. Coarse calls
(suites, relation checks, Casimir checks, charge quadrature, radial solves)
are also kept as spans (name, start, end, parent, run id) and written out
at the end. Hot constructors (`GaussRat`, `ScalarExpr`) only count; their
self times would be dominated by the wrapper and are not reported.

Every wrapper re-raises: `TermBudgetExceeded` drives the C4 fallback. A
wrapper whose target a later change removed or renamed is not installed;
the metrics it feeds are left out of the trace's metrics and listed under
"unmeasured", so that run.py reports them as not measured.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter

SUITES = ("euler", "gauge", "field", "charge", "algebra", "casimir",
          "spectrum", "radial")


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "maxima", "depth", "layer_s",
                 "spans")

    def __init__(self):
        self.stack = []                                  # open timed calls
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])    # name -> calls, total, self
        self.counts = defaultdict(int)                   # also float sums
        self.maxima = defaultdict(int)
        self.depth = defaultdict(int)                    # layer -> open calls
        self.layer_s = defaultdict(float)                # layer -> outermost time
        self.spans = []


class Tracer:
    """Per-thread span stacks and counters, merged when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = perf()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._next_id = 0
        # Spans opened in pool threads have no local parent; they hang off
        # the `run_suite` span that started the pool.
        self.root_span = None

    def state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
            return st

    def span_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def current_span(self):
        """Id of the innermost recorded span open in this thread."""
        return next((f[1] for f in reversed(self.state().stack)
                     if f[1] is not None), self.root_span)

    def timed(self, fn, name: str, layer: str, record: bool = False,
              on_exit=None):
        """Wrap fn: calls, total and self time under `name`; outermost time
        under `layer`; a recorded span when `record`; `on_exit(args, kw,
        result)` after a normal return."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            st = tracer.state()
            stack = st.stack
            outer = st.depth[layer] == 0
            st.depth[layer] += 1
            frame = [0.0, None]
            if record:
                frame[1] = tracer.span_id()
            stack.append(frame)
            t = perf()
            try:
                result = fn(*args, **kw)
            finally:
                end = perf()
                dt = end - t
                stack.pop()
                st.depth[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                if outer:
                    st.layer_s[layer] += dt
                a = st.agg[name]
                a[0] += 1
                a[1] += dt
                a[2] += dt - frame[0]
                if record:
                    st.spans.append((frame[1], tracer.current_span(), name,
                                     t - tracer.t0, end - tracer.t0))
            if on_exit is not None:
                on_exit(args, kw, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        """Wrap fn with a bare call counter (no clock reads)."""
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                counts = local.st.counts
            except AttributeError:
                counts = tracer.state().counts
            counts[name] += 1
            return fn(*args, **kw)

        return wrapper

    def count(self, name: str, n=1) -> None:
        self.state().counts[name] += n

    def maximum(self, name: str, n) -> None:
        maxima = self.state().maxima
        if n > maxima[name]:
            maxima[name] = n

    def merged(self):
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        maxima = defaultdict(int)
        layer_s = defaultdict(float)
        spans = []
        for st in self._states:
            for k, v in st.maxima.items():
                maxima[k] = max(maxima[k], v)
            for k, (c, tot, slf) in st.agg.items():
                a = agg[k]
                a[0] += c
                a[1] += tot
                a[2] += slf
            for k, v in st.counts.items():
                counts[k] += v
            for k, v in st.layer_s.items():
                layer_s[k] += v
            spans.extend(st.spans)
        spans.sort()
        return agg, counts, maxima, layer_s, spans


def _hkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hkit" or name.startswith("hkit."))]


def _module(name: str):
    """hkit.<name>, or None once a change has removed that module."""
    try:
        return importlib.import_module(f"hkit.{name}")
    except ModuleNotFoundError:
        return None


def wrap_function(module, attr: str, make) -> bool:
    """Rebind every module-level name in hkit bound to module.attr to
    make(module.attr). False, and nothing rebound, when the function no
    longer exists or make returns None."""
    orig = getattr(module, attr, None)
    wrapper = make(orig) if orig is not None else None
    if wrapper is None:
        return False
    for mod in _hkit_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
    return True


def wrap_method(cls, attr: str, make) -> bool:
    """Replace cls.attr and every alias of it in the class (such as
    __radd__ = __add__) with make(original function). False when gone."""
    orig = vars(cls).get(attr) if cls is not None else None
    if orig is None:
        return False
    is_static = isinstance(orig, staticmethod)
    wrapped = make(orig.__func__ if is_static else orig)
    if is_static:
        wrapped = staticmethod(wrapped)
    for key, value in list(vars(cls).items()):
        if value is orig:
            setattr(cls, key, wrapped)
    return True


def instrument(tracer: Tracer) -> dict:
    """Install the wrappers; return the probes read when the run ends.

    probes["unmeasured"] names the metrics fed by a wrapper that could not
    be installed, because a later change removed or renamed its target.
    """
    exact, gauge, jets, operators, radial, report, suites, symmetry, \
        topology, transforms = map(_module, (
            "exact", "gauge", "jets", "operators", "radial", "report",
            "suites", "symmetry", "topology", "transforms"))
    TermBudgetExceeded = getattr(_module("errors"), "TermBudgetExceeded", None)

    T = tracer
    # Values summed over calls go through T.count, which keeps one tally
    # per thread: `jobs = 2` runs two suites at once.
    probes = {"jobs": 1, "run_suite_s": 0.0, "unmeasured": set()}

    def feeds(installed: bool, *metrics: str) -> None:
        if not installed:
            probes["unmeasured"].update(metrics)

    def timed(name, layer, **kw):
        return lambda fn: T.timed(fn, name, layer, **kw)

    # ----- suites -----------------------------------------------------------
    for name, fn in list(suites.SUITE_RUNNERS.items()):
        suites.SUITE_RUNNERS[name] = T.timed(fn, f"suites.{name}", "suites",
                                             record=True)
    for name in SUITES:
        feeds(name in suites.SUITE_RUNNERS, f"suites.{name}_s")

    def wrap_run_suite(orig):
        def run_suite(cfg):
            probes["jobs"] = cfg.jobs
            st = T.state()
            span_id = T.span_id()
            T.root_span = span_id
            t = perf()
            try:
                return orig(cfg)
            finally:
                end = perf()
                T.root_span = None
                probes["run_suite_s"] += end - t
                st.spans.append((span_id, None, "suites.run_suite",
                                 t - T.t0, end - T.t0))
        return run_suite

    feeds(wrap_function(suites, "run_suite", wrap_run_suite),
          "suites.pool_efficiency")

    # ----- symmetry ---------------------------------------------------------
    feeds(wrap_function(symmetry, "build_operators",
                        timed("symmetry.build_operators", "symmetry",
                              record=True)),
          "symmetry.build_operators_s", "symmetry.build_operators_calls")
    feeds(wrap_function(symmetry, "verify_relation",
                        timed("symmetry.verify_relation", "symmetry",
                              record=True)),
          "symmetry.verify_relation_s")

    def wrap_casimir(orig):
        by_which = {w: T.timed(orig, f"symmetry.casimir_{w.lower()}",
                               "symmetry", record=True)
                    for w in ("C2", "C3", "C4")}

        def casimir_check(ops, which, *args, **kw):
            result = by_which[which](ops, which, *args, **kw)
            if which == "C4" and result.mode == "exact":
                T.count("c4_exact")
            return result
        return casimir_check

    feeds(wrap_function(symmetry, "casimir_check", wrap_casimir),
          "symmetry.casimir_c2_s", "symmetry.casimir_c3_s",
          "symmetry.casimir_c4_s", "symmetry.c4_exact_yield")
    feeds(wrap_function(symmetry, "c4_applied_residual",
                        timed("symmetry.c4_fallback", "symmetry",
                              record=True)),
          "symmetry.c4_fallback_s")

    # The budget brackets the exact C4 attempt: entering it starts the
    # attempt, leaving it (normally or by TermBudgetExceeded) ends it.
    opened = {}

    def wrap_enter(orig):
        def enter(self):
            T.count("c4_attempts")
            opened[id(self)] = perf()
            return orig(self)
        return enter

    def wrap_exit(orig):
        def exit_(self, *exc):
            t = opened.pop(id(self))
            end = perf()
            T.count("budget_s", end - t)
            T.count("budget_units", self.used)
            outcome = ("exceeded" if exc and exc[0] is TermBudgetExceeded
                       else "within")
            T.state().spans.append((T.span_id(), T.current_span(),
                                    f"symmetry.c4_exact_attempt.{outcome}",
                                    t - T.t0, end - T.t0))
            return orig(self, *exc)
        return exit_

    Budget = getattr(operators, "Budget", None)
    budget_metrics = ("symmetry.c4_exact_attempt_s", "symmetry.c4_exact_yield",
                      "operators.budget_units")
    feeds(wrap_method(Budget, "__enter__", wrap_enter), *budget_metrics)
    feeds(wrap_method(Budget, "__exit__", wrap_exit), *budget_metrics)

    # ----- operators --------------------------------------------------------
    def matmul_exit(args, kw, result):
        T.maximum("matmul_terms_max", result.term_count())

    OperatorExpr = getattr(operators, "OperatorExpr", None)
    feeds(wrap_method(OperatorExpr, "__matmul__",
                      timed("operators.matmul", "operators",
                            on_exit=matmul_exit)),
          "operators.matmul_calls", "operators.matmul_self_s",
          "operators.matmul_terms_max")
    feeds(wrap_method(OperatorExpr, "is_zero",
                      timed("operators.is_zero", "operators")),
          "operators.is_zero_s")

    word_memo = getattr(operators, "_WORD_MEMO", None)
    feeds(word_memo is not None, "operators.word_memo_hit_ratio",
          "operators.word_memo_size")
    feeds(hasattr(operators, "_GEN_MEMO"), "operators.gen_memo_size")

    def wrap_word_mul(orig):
        timed_word_mul = T.timed(orig, "operators.word_mul", "operators")
        memo = word_memo if word_memo is not None else {}

        def word_mul(w1, w2):
            if w1 != (0, 0, 0) and w2 != (0, 0, 0):
                T.count("word_memo_lookups")
                if (w1, w2) in memo:
                    T.count("word_memo_hits")
            return timed_word_mul(w1, w2)
        return word_mul

    feeds(wrap_function(operators, "word_mul", wrap_word_mul),
          "operators.word_mul_calls", "operators.word_memo_hit_ratio")
    feeds(wrap_function(operators, "apply",
                        timed("operators.apply", "operators")),
          "operators.apply_s")

    # ----- exact ------------------------------------------------------------
    GaussRat = getattr(exact, "GaussRat", None)
    ScalarExpr = getattr(exact, "ScalarExpr", None)
    for attr in ("__init__", "_make"):
        feeds(wrap_method(GaussRat, attr,
                          lambda fn: T.counted(fn, "exact.gaussrat_new")),
              "exact.gaussrat_new")
    feeds(wrap_method(ScalarExpr, "__init__",
                      lambda fn: T.counted(fn, "exact.scalar_new")),
          "exact.scalar_new")
    feeds(wrap_method(ScalarExpr, "__mul__", timed("exact.scalar_mul", "exact")),
          "exact.scalar_mul_calls", "exact.scalar_mul_self_s")
    feeds(wrap_method(ScalarExpr, "__add__", timed("exact.scalar_add", "exact")),
          "exact.scalar_add_calls", "exact.scalar_add_self_s")
    feeds(wrap_method(ScalarExpr, "is_zero",
                      timed("exact.scalar_is_zero", "exact")),
          "exact.scalar_is_zero_s")

    # ----- jets -------------------------------------------------------------
    PointJet = getattr(jets, "PointJet", None)
    for attr in ("__init__", "expr", "expr_cached", "derivatives"):
        feeds(wrap_method(PointJet, attr, timed(f"jets.PointJet.{attr}", "jets")),
              "jets.pointjet_s")
    feeds(wrap_function(jets, "shift_table", timed("jets.shift_table", "jets")),
          "jets.pointjet_s")

    # ----- gauge: first (cache-missing) field_tensor/vector_potential calls --
    cold_depth = threading.local()

    def cold(cached):
        if not hasattr(cached, "cache_info"):
            return None                  # no longer an lru_cache

        @functools.wraps(cached)
        def wrapper(*args, **kw):
            depth = getattr(cold_depth, "n", 0)
            cold_depth.n = depth + 1
            before = cached.cache_info().misses
            t = perf()
            try:
                return cached(*args, **kw)
            finally:
                dt = perf() - t
                cold_depth.n = depth
                if depth == 0 and cached.cache_info().misses > before:
                    T.count("cold_s", dt)
        return wrapper

    for attr in ("field_tensor", "vector_potential"):
        feeds(wrap_function(gauge, attr, cold), "gauge.field_tensor_cold_s")

    # ----- topology ---------------------------------------------------------
    feeds(wrap_function(topology, "topological_charge",
                        timed("topology.charge", "topology", record=True)),
          "topology.charge_s", "topology.charge_calls",
          "topology.points_per_s")

    def charge_once_exit(args, kw, result):
        p = 1
        for n in args[0].nodes:
            p *= n
        T.count("quad_points", p)
        T.count("bytes_computed", 8 * p * _CHARGE_DOUBLES_PER_POINT)

    feeds(wrap_function(topology, "_charge_once",
                        timed("topology.charge_once", "topology", record=True,
                              on_exit=charge_once_exit)),
          "topology.quad_points", "topology.bytes_computed",
          "topology.points_per_s")

    # ----- radial -----------------------------------------------------------
    for attr in ("solve_oscillator", "solve_coulomb"):
        feeds(wrap_function(radial, attr, timed(f"radial.{attr}", "radial",
                                                record=True)),
              "radial.solve_s", "radial.solves", "radial.points_per_s")

    def fd_exit(args, kw, result):
        T.count("grid_points", args[3])

    feeds(wrap_function(radial, "_fd_eigen",
                        timed("radial.fd_eigen", "radial", on_exit=fd_exit)),
          "radial.grid_points", "radial.points_per_s")

    # ----- transforms -------------------------------------------------------
    feeds(wrap_function(transforms, "euler_defect",
                        timed("transforms.euler_defect", "transforms")),
          "transforms.euler_defect_calls", "transforms.euler_defect_s")

    # ----- report -----------------------------------------------------------
    def emit_exit(args, kw, result):
        T.count("json_bytes", len(result.encode("utf-8")))

    feeds(wrap_function(report, "emit_report",
                        timed("report.emit", "report", record=True,
                              on_exit=emit_exit)),
          "report.emit_s", "report.json_bytes")
    return probes


# Float64 values the charge quadrature materialises per surface point, read
# off the array shapes in topology._charge_once: four node grids and the
# weights (5), the points (5), the radius and axis arrays (2), the Jacobian
# (25), and per generator the 10 compiled components, F, J F, J F J^T (3 x 25)
# and the density (1), three generators in all.
_CHARGE_DOUBLES_PER_POINT = 5 + 5 + 2 + 25 + 3 * (10 + 75 + 1)


def layer_metrics(tracer: Tracer, probes: dict) -> tuple[dict, dict, list]:
    """The per-layer metrics of one traced run keyed by metric name, the
    per-function totals and the recorded spans."""
    operators = _module("operators")
    agg, counts, maxima, layer_s, spans = tracer.merged()

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    def calls(name):
        return agg[name][0] if name in agg else 0

    m = {}
    for name in SUITES:
        m[f"suites.{name}_s"] = total(f"suites.{name}")
    suite_sum = sum(a[1] for k, a in agg.items() if k.startswith("suites."))
    run_s = probes["run_suite_s"]
    m["suites.pool_efficiency"] = (suite_sum / (probes["jobs"] * run_s)
                                   if run_s else 0.0)

    m["symmetry.build_operators_s"] = total("symmetry.build_operators")
    m["symmetry.build_operators_calls"] = calls("symmetry.build_operators")
    m["symmetry.verify_relation_s"] = total("symmetry.verify_relation")
    for w in ("c2", "c3", "c4"):
        m[f"symmetry.casimir_{w}_s"] = total(f"symmetry.casimir_{w}")
    m["symmetry.c4_exact_attempt_s"] = counts["budget_s"]
    m["symmetry.c4_fallback_s"] = total("symmetry.c4_fallback")
    m["symmetry.c4_exact_yield"] = (counts["c4_exact"] / counts["c4_attempts"]
                                    if counts["c4_attempts"] else 0.0)

    m["operators.budget_units"] = counts["budget_units"]
    m["operators.matmul_calls"] = calls("operators.matmul")
    m["operators.matmul_self_s"] = self_s("operators.matmul")
    m["operators.matmul_terms_max"] = maxima["matmul_terms_max"]
    m["operators.word_mul_calls"] = calls("operators.word_mul")
    m["operators.word_memo_hit_ratio"] = (
        counts["word_memo_hits"] / counts["word_memo_lookups"]
        if counts["word_memo_lookups"] else 0.0)
    m["operators.word_memo_size"] = len(getattr(operators, "_WORD_MEMO", ()))
    m["operators.gen_memo_size"] = len(getattr(operators, "_GEN_MEMO", ()))
    m["operators.is_zero_s"] = total("operators.is_zero")
    m["operators.apply_s"] = total("operators.apply")

    m["exact.gaussrat_new"] = counts["exact.gaussrat_new"]
    m["exact.scalar_new"] = counts["exact.scalar_new"]
    m["exact.scalar_mul_calls"] = calls("exact.scalar_mul")
    m["exact.scalar_mul_self_s"] = self_s("exact.scalar_mul")
    m["exact.scalar_add_calls"] = calls("exact.scalar_add")
    m["exact.scalar_add_self_s"] = self_s("exact.scalar_add")
    m["exact.scalar_is_zero_s"] = self_s("exact.scalar_is_zero")

    m["jets.pointjet_s"] = layer_s["jets"]
    m["gauge.field_tensor_cold_s"] = counts["cold_s"]

    charge_s = total("topology.charge")
    m["topology.charge_s"] = charge_s
    m["topology.charge_calls"] = calls("topology.charge")
    m["topology.quad_points"] = counts["quad_points"]
    m["topology.points_per_s"] = (counts["quad_points"] / charge_s
                                  if charge_s else 0.0)
    m["topology.bytes_computed"] = counts["bytes_computed"]

    solve_s = total("radial.solve_oscillator") + total("radial.solve_coulomb")
    m["radial.solve_s"] = solve_s
    m["radial.solves"] = (calls("radial.solve_oscillator")
                          + calls("radial.solve_coulomb"))
    m["radial.grid_points"] = counts["grid_points"]
    m["radial.points_per_s"] = (counts["grid_points"] / solve_s
                                if solve_s else 0.0)

    m["transforms.euler_defect_calls"] = calls("transforms.euler_defect")
    m["transforms.euler_defect_s"] = total("transforms.euler_defect")

    m["report.emit_s"] = total("report.emit")
    m["report.json_bytes"] = counts["json_bytes"]
    for name in probes["unmeasured"]:
        del m[name]
    return m, agg, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--report", required=True, help="where the report goes")
    ap.add_argument("--trace", required=True, help="where spans and metrics go")
    args = ap.parse_args(argv)

    tracer = Tracer(f"{Path(args.config).stem}-seed{args.seed}")
    from hkit import cli
    probes = instrument(tracer)
    t = perf()
    code = cli.main(["report", "--config", args.config, "--seed", str(args.seed),
                     "--format", "json", "--out", args.report])
    wall = perf() - t
    metrics, agg, spans = layer_metrics(tracer, probes)
    doc = {
        "run_id": tracer.run_id,
        "exit_code": code,
        "wall_s": wall,
        "metrics": metrics,
        "unmeasured": sorted(probes["unmeasured"]),
        "functions": {k: {"calls": c, "total_s": tot, "self_s": slf}
                      for k, (c, tot, slf) in sorted(agg.items())},
        "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e,
                   "run_id": tracer.run_id} for i, p, n, s, e in spans],
    }
    with open(args.trace, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
