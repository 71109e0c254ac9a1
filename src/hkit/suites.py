"""Named verification suites: each one checks a family of identities and
returns CheckReport rows.

Every suite is independent and deterministic under a fixed seed, so they
can run in parallel.  With jobs > 1, run_suite runs one suite per task in
a pool of forked worker processes, never more workers than suites, and
assembles the rows in canonical suite order no matter which worker
finishes first.  The checks are pure-Python exact arithmetic, so threads
would take turns on the interpreter lock; forked workers inherit the
imported modules and the warm memos instead of importing hkit again.
A check that fails becomes a row with passed=False rather than an
exception, and so does a suite whose worker died; only configuration
problems abort a run.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import __version__
from .config import SuiteConfig, config_echo
from .exact import CHART_A, CHART_B
from .gauge import (
    KNOWN_TABLE_DISCREPANCIES,
    angular_field_check,
    ff_contraction_check,
    ff_intermediate_check,
    field_closed_form_check,
    field_table_discrepancies,
    gauge_transform_check,
    potential_orthogonality_check,
    potential_reproduction_check,
    potential_transversality_check,
    self_duality_check,
    su2_trig_generators_check,
    tau_eps_identity_check,
    tau_product_check,
)
from .params import UnitParams
from .radial import (
    RadialProblem,
    coulomb_level,
    duality_map,
    oscillator_level,
    solve_coulomb,
    solve_oscillator,
    substitution_residual_check,
)
from .report import (
    MODE_EXACT,
    MODE_NUMERIC,
    CheckReport,
    RunReport,
    build_report,
)
from .spectrum import (
    casimir_eigenvalues,
    casimir_hamiltonian_residuals,
    constraint_factorization,
    duality_closure_check,
    energy_levels,
    level_energy,
    solve_constraints,
)
from .symmetry import (
    RELATION_NAMES,
    build_operators,
    casimir_check,
    verify_relation,
)
from .topology import charge_components, listing_quadrature
from .transforms import (
    HyperSpherical,
    IntPoly,
    euler_defect,
    h_matrix_orthogonality_check,
    hyperspherical,
    hyperspherical_inverse,
    matrix_vs_map_audit,
)


def _exact(suite: str, relation: str, anchor: str, ok: bool,
           detail: str = "") -> CheckReport:
    return CheckReport(suite, relation, anchor, MODE_EXACT,
                       0.0 if ok else None, ok, detail)


def _numeric(suite: str, relation: str, anchor: str, residual: float,
             tol: float, detail: str = "") -> CheckReport:
    note = f"tolerance {tol:.0e}"
    if detail:
        note = f"{detail}; {note}"
    value = float(residual)
    return CheckReport(suite, relation, anchor, MODE_NUMERIC,
                       value, value < tol, note)


# ----- euler ----------------------------------------------------------------

def run_euler(cfg: SuiteConfig) -> list[CheckReport]:
    rows = []
    for dim in (2, 4, 8):
        defect = euler_defect(IntPoly.variables(dim)).terms
        found = f"{len(defect)} nonzero terms" if defect else "identically zero"
        rows.append(_exact("euler", f"norm-identity-D{dim}", "x.x = (u.u)^2",
                           not defect, f"{found} as a polynomial in u"))
        rows.append(_exact("euler", f"bilinear-orthogonality-D{dim}",
                           "H(u) H(u)^t = (u.u) E", h_matrix_orthogonality_check(dim),
                           "symbolic, all matrix entries"))
    audit = matrix_vs_map_audit()
    agree = [i for i, m in enumerate(audit["head_matches"]) if m]
    differ = [i for i, m in enumerate(audit["head_matches"]) if not m]
    rows.append(CheckReport(
        "euler", "display-matrix-audit",
        "printed 8x8 display vs the component formulas", MODE_EXACT, None, True,
        f"components {agree} of the printed display match; components {differ} "
        f"differ and the component formulas are used; trailing components vanish: "
        f"{audit['tail_vanishes']}"))

    nrng = np.random.default_rng(cfg.seed)
    xs = []
    while len(xs) < 1000:
        x = nrng.uniform(-2.0, 2.0, 5)
        if np.hypot(x[1], x[2]) >= 0.1 and np.hypot(x[3], x[4]) >= 0.1:
            xs.append(x)
    angles = np.array([[h.r, h.theta, h.alpha, h.beta, h.gamma]
                       for h in map(hyperspherical, xs)])
    back = hyperspherical_inverse(HyperSpherical(*angles.T))
    worst = float(np.max(np.abs(np.array(back).T - xs)))
    rows.append(_numeric("euler", "hyperspherical-round-trip",
                         "x -> (r, theta, alpha, beta, gamma) -> x", worst,
                         cfg.tolerances["round_trip"], "1000 random points"))
    return rows


# ----- gauge ----------------------------------------------------------------

def run_gauge(cfg: SuiteConfig) -> list[CheckReport]:
    rows = [
        _exact("gauge", "tau-products",
               "4 t^a t^b = delta_ab (1 - e0 e0^t) + 2i eps_abc t^c",
               tau_product_check(), "entrywise over both index pairs"),
        _exact("gauge", "tau-eps-identity",
               "eps_abc t^b_ij t^c_km expansion", tau_eps_identity_check()),
    ]
    for chart, label, frac in ((CHART_A, "A", "(r-x0)/(r^2 (r+x0))"),
                               (CHART_B, "B", "(r+x0)/(r^2 (r-x0))")):
        rows.append(_exact("gauge", f"potential-listing-{label}",
                           "generator formula reproduces the listed components",
                           potential_reproduction_check(chart)))
        rows.append(_exact("gauge", f"potential-orthogonality-{label}",
                           f"A^a.A^b = delta_ab {frac}",
                           potential_orthogonality_check(chart)))
        rows.append(_exact("gauge", f"potential-transversality-{label}",
                           "A^a.x = 0", potential_transversality_check(chart)))
    cot, printed = (su2_trig_generators_check(v) for v in ("cot", "printed"))
    rows.append(_exact(
        "gauge", "su2-trig-generators",
        "[T_a, T_b] = i eps_abc T_c in the angle realization", cot == 0,
        f"cot-coefficient variant, {9 - cot} of 9 bracket components vanish "
        f"as trig polynomials; the printed cos coefficient leaves {printed} "
        f"of 9 nonzero"))
    bad = gauge_transform_check()
    rows.append(_exact(
        "gauge", "chart-transition",
        "S A_j S^-1 + i S d_j S^-1 equals the second-chart potential", bad == 0,
        f"{40 - bad} of 40 real and imaginary parts of S A_m - i d_m S - B_m S, "
        f"m in (r, theta, beta, alpha, gamma), vanish as trig polynomials"))
    return rows


# ----- field ----------------------------------------------------------------

def run_field(cfg: SuiteConfig) -> list[CheckReport]:
    rows = [
        _exact("field", "closed-form",
               "curl-plus-commutator tensor equals its closed form",
               field_closed_form_check()),
        _exact("field", "ff-intermediate",
               "F^a_ij F^b_jk = (x_i x_k - r^2 d_ik) delta_ab / r^6 "
               "+ eps_abc F^c_ik / r^2", ff_intermediate_check()),
        _exact("field", "ff-contraction",
               "F^a_ij F^b_ij = (4/r^4) delta_ab", ff_contraction_check(),
               "definition-built tensor, exact zero residual"),
    ]
    found = field_table_discrepancies()
    rows.append(_exact(
        "field", "cartesian-table-audit",
        "printed Cartesian component table vs the definition",
        found == KNOWN_TABLE_DISCREPANCIES,
        f"{30 - len(found)} of 30 entries agree exactly; "
        f"{len(found)} listed entries differ and are itemized below"))
    for a, i, j in sorted(found):
        rows.append(CheckReport(
            "field", f"table-discrepancy-{a}-{i}{j}",
            f"printed F^{a}_{i}{j}", MODE_EXACT, None, True,
            "printed entry is inconsistent with the definition and with the "
            "contraction identities; the derived value is used everywhere"))
    differ = angular_field_check()
    rows.append(_exact(
        "field", "angular-listing",
        "pulled-back tensor matches the angular component table", differ == 0,
        f"{30 - differ} of 30 components agree as trig polynomials in theta, "
        f"beta/2 and (alpha -+ gamma)/2"))
    rows.append(_exact(
        "field", "self-duality", "*F = F on the angular block",
        self_duality_check(),
        "(1/2) eps_ijklm F^a_kl x_m = r F^a_ij, exact zero residual; "
        "(theta, beta, alpha, gamma) orientation"))
    return rows


# ----- charge ---------------------------------------------------------------

def run_charge(cfg: SuiteConfig) -> list[CheckReport]:
    # The integrand is the angular listing, so each exact row holds only
    # when this run proves the listing too.
    differ = angular_field_check()
    chain = ("angular listing proved (field/angular-listing), then integrated "
             "exactly by the Wallis rules" if not differ else
             f"angular listing not proved: {differ} of 30 components differ")
    q = charge_components()
    quad = listing_quadrature(cfg.charge_nodes)
    return [
        _exact("charge", "total", "q = +1", not differ and sum(q) == 1,
               f"q = {sum(q)}; {chain}"),
        _exact("charge", "components", "q^a = 1/3 for each generator",
               not differ and all(c == Fraction(1, 3) for c in q),
               f"q^a = {', '.join(map(str, q))}; {chain}"),
        _numeric("charge", "node-doubling",
                 "raising node counts to the exact counts leaves q unchanged",
                 max(abs(Q - c) for Q, c in zip(quad, q)),
                 cfg.tolerances["charge_refinement"],
                 f"nodes {cfg.charge_nodes}: the Gauss-Legendre x midpoint sum "
                 f"of the listed density against the exact q^a, its measured "
                 f"truncation plus rounding defect"),
        _exact("charge", "radius-independence",
               "doubling the sphere radius leaves q unchanged", not differ,
               f"the listing was proved with r a variable and has no r; {chain}"),
    ]


# ----- algebra --------------------------------------------------------------

RELATION_ANCHORS = {
    "pi-x": "[pi_i, x_j] = -i hbar delta_ij",
    "pi-pi": "[pi_i, pi_j] = i hbar^2 F^a_ij T_a",
    "L-x": "[L_ij, x_k] = i (delta_ik x_j - delta_jk x_i)",
    "L-pi": "[L_ij, pi_k] = i (delta_ik pi_j - delta_jk pi_i)",
    "L-L": "[L_ij, L_mn] = i (d_im L_jn - d_jm L_in - d_in L_jm + d_jn L_im)",
    "H-L": "[H, L_ij] = 0",
    "H-M": "[H, M_i] = 0",
    "L-M": "[L_ij, M_k] = i (delta_ik M_j - delta_jk M_i)",
    "M-M": "[M_i, M_k] = -2i H L_ik, at the rescaling Mt = 2 sqrt(mu0) M",
    "SO51-cleared": "cleared bracket certifying [M'_i, M'_k] = -i L_ik",
}


def run_algebra(cfg: SuiteConfig) -> list[CheckReport]:
    ops = build_operators(UnitParams(cfg.hbar, cfg.mu0, cfg.e2))
    rows = []
    for name in RELATION_NAMES:
        r = verify_relation(ops, name)
        rows.append(_exact("algebra", name, RELATION_ANCHORS[name], r.passed,
                           r.detail))
    return rows


# ----- casimir --------------------------------------------------------------

_CASIMIR_ANCHORS = {
    "C2": "(1/2) L.L (-2H) + Mt.Mt/(4 mu0) = mu0 e2^2/hbar^2 + (2 T^2 - 4)(-2H)",
    "C3": "eps-contraction of the rank-6 generators = 96 (mu0 e2/hbar) T^2",
    "C4": "C4 = C2^2 + 6 C2 - 4 C2 T^2 - 12 T^2 + 6 T^4, cleared by (-2H)^2",
}


def run_casimir(cfg: SuiteConfig) -> list[CheckReport]:
    ops = build_operators(UnitParams(cfg.hbar, cfg.mu0, cfg.e2))
    rows = []
    for which in ("C2", "C3", "C4"):
        r = casimir_check(ops, which, tol=cfg.tolerances["casimir_numeric"])
        rows.append(CheckReport("casimir", f"{which.lower()}-cleared",
                                _CASIMIR_ANCHORS[which], r.mode, r.residual,
                                r.passed, r.detail))
    return rows


# ----- spectrum -------------------------------------------------------------

def run_spectrum(cfg: SuiteConfig) -> list[CheckReport]:
    p = UnitParams(cfg.hbar, cfg.mu0, cfg.e2)
    rows = []

    ev = casimir_eigenvalues(1, 1, 1)
    ev0 = casimir_eigenvalues(0, 0, 0)
    ok = (ev.c2, ev.c3, ev.c4) == (9, 288, 63) and (ev0.c2, ev0.c3, ev0.c4) == (0, 0, 0)
    rows.append(_exact("spectrum", "casimir-values",
                       "C2, C3, C4 on the labels (mu1, mu2, mu3)", ok,
                       "(1,1,1) -> (9, 288, 63) and (0,0,0) -> (0, 0, 0)"))

    halves = [Fraction(k, 2) for k in range(7)]
    ok = True
    for t in halves:
        sol = solve_constraints(t)
        if constraint_factorization(sol.mu2, sol.mu3) != 0:
            ok = False
        if any(Fraction(n, 2) - t != int(Fraction(n, 2) - t)
               for n in sol.admissible_N(6)):
            ok = False
    rows.append(_exact("spectrum", "label-constraints",
                       "mu3 = mu2 = T and N/2 in {T, T+1, ...}", ok,
                       "T from 0 to 3 in half steps"))

    default = UnitParams()
    ok = (level_energy(0, 0, default) == Fraction(-1, 8)
          and level_energy(Fraction(1, 2), 1, default) == Fraction(-2, 25))
    levels = energy_levels(1, 8, p)
    ok = ok and all(a.energy < b.energy < 0 for a, b in zip(levels, levels[1:]))
    rows.append(_exact("spectrum", "level-formula",
                       "eps = -mu0 e2^2 / (2 hbar^2 (N/2+2)^2)", ok,
                       "unit-parameter values -1/8 and -2/25; "
                       "strictly increasing toward 0"))

    ok = True
    for t in halves:
        for n in solve_constraints(t).admissible_N(4):
            if casimir_hamiltonian_residuals(t, n, p) != (0, 0, 0):
                ok = False
    rows.append(_exact("spectrum", "hamiltonian-consistency",
                       "Casimirs through the energy agree with the label formulas",
                       ok, "28 levels, exact rational arithmetic"))

    ok = True
    cases = 0
    for w in (Fraction(1), Fraction(3, 2)):
        for n in range(41):
            if not duality_closure_check(n, w, p).passed:
                ok = False
            cases += 1
    rows.append(_exact("spectrum", "duality-closure",
                       "E = hbar w (N+4), e2 = E/4 lands on eps = -mu0 w^2/8",
                       ok, f"{cases} exact closures, N = 0..40"))
    return rows


# ----- radial ---------------------------------------------------------------

def run_radial(cfg: SuiteConfig) -> list[CheckReport]:
    n = cfg.n_points
    tol_rel = cfg.tolerances["radial_rel"]
    tol_law = cfg.tolerances["radial_law"]
    tol_res = cfg.tolerances["radial_residual"]
    rows = []

    osc_prob = RadialProblem.oscillator(8, 0, 1.0, n_points=n)
    osc = solve_oscillator(osc_prob, levels=3)
    worst = max(abs(float(e) - oscillator_level(osc_prob, k)) / oscillator_level(osc_prob, k)
                for k, e in enumerate(osc.eigenvalues))
    rows.append(_numeric("radial", "oscillator-ladder",
                         "E = hbar w (2 n_r + L + D/2)", worst, tol_rel,
                         "D=8, L=0, three levels"))
    # Each fine solve is used up as soon as it returns, so one fine grid is
    # live at a time.
    mapped = duality_map(osc)
    sub = substitution_residual_check(osc, 0, tol=tol_res)
    del osc

    cou_prob = RadialProblem.coulomb(5, 0.0, 1.0, n_points=n)
    cou = solve_coulomb(cou_prob, levels=3).eigenvalues
    worst = max(abs(float(e) - coulomb_level(cou_prob, k)) / abs(coulomb_level(cou_prob, k))
                for k, e in enumerate(cou))
    rows.append(_numeric("radial", "coulomb-law",
                         "eps = -m e2^2 / (2 hbar^2 (n_r + l + 2)^2)", worst,
                         tol_law, "d=5, l=0, three levels"))

    half_prob = RadialProblem.coulomb(5, 0.5, 1.0, n_points=n)
    half = solve_coulomb(half_prob, levels=1).eigenvalues
    worst = abs(float(half[0]) + 2.0 / 25.0) / (2.0 / 25.0)
    rows.append(_numeric("radial", "coulomb-half-integer-l",
                         "half-integer l enters the same law", worst, tol_law,
                         "d=5, l=1/2 ground state vs -2/25"))

    worst = 0.0
    for m in mapped:
        dual = solve_coulomb(m.dual_problem, levels=m.dual_index + 1).eigenvalues
        got = float(dual[m.dual_index])
        worst = max(worst, abs(got - m.predicted) / abs(m.predicted))
    rows.append(_numeric("radial", "duality-map",
                         "e2 = E/4 sends level N onto eps = -m w^2/8", worst,
                         tol_rel, "three levels, two independent solvers"))
    rows.append(_numeric("radial", "substitution-residual",
                         "solved radial function satisfies the dual equation "
                         "under r = u^2", sub.rel_residual, tol_res,
                         f"window {sub.window[0]:.2f}..{sub.window[1]:.2f}, "
                         f"{sub.n_samples} samples"))
    return rows


# ----- orchestration --------------------------------------------------------

SUITE_RUNNERS = {
    "euler": run_euler,
    "gauge": run_gauge,
    "field": run_field,
    "charge": run_charge,
    "algebra": run_algebra,
    "casimir": run_casimir,
    "spectrum": run_spectrum,
    "radial": run_radial,
}


# glibc's malloc_trim hands the free pages of the malloc heap back to the
# system; other C libraries lack it, and there nothing is trimmed.
_MALLOC_TRIM = (getattr(ctypes.CDLL(None), "malloc_trim", None)
                if os.name == "posix" else None)
if _MALLOC_TRIM is not None:
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int


def _crash_rows(name: str, exc: BaseException) -> list[CheckReport]:
    # numeric with no residual: a crash proves no identity, so it must not
    # count toward the exact rows.
    return [CheckReport(name, "suite-crash", "unexpected exception",
                        MODE_NUMERIC, None, False,
                        f"{type(exc).__name__}: {exc}")]


def _run_one(name: str, cfg: SuiteConfig) -> list[CheckReport]:
    try:
        return SUITE_RUNNERS[name](cfg)
    except Exception as exc:
        # A crashed runner becomes a failed row; the run itself continues.
        return _crash_rows(name, exc)
    finally:
        # Freed heap below a live block stays resident under the next suite's
        # peak: report-default's read about 70.2 or 73.9 MB by layout alone.
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def run_suite(cfg: SuiteConfig) -> RunReport:
    """Run the configured suites, in worker processes when jobs > 1."""
    rows: list[CheckReport] = []
    # Under fork the pool starts all of its workers up front, so cap them.
    workers = min(cfg.jobs, len(cfg.suites))
    if workers > 1:
        # fork is named because the default start method differs between
        # platforms and Python versions; spawn would import hkit again in
        # every worker.
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork")) as pool:
            futures = {name: pool.submit(_run_one, name, cfg)
                       for name in cfg.suites}
            for name in cfg.suites:
                try:
                    rows.extend(futures[name].result())
                except Exception as exc:
                    # A worker that died (BrokenProcessPool) or a result
                    # that could not come back loses this suite's rows.
                    rows.extend(_crash_rows(name, exc))
    else:
        for name in cfg.suites:
            rows.extend(_run_one(name, cfg))
    return build_report(rows, config_echo(cfg), __version__)
