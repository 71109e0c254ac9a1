"""Radial eigensolver: closed-form ladders, grid honesty, the energy-coupling
swap between the two problems, and the substitution check."""

from __future__ import annotations

import importlib.util
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hkit import radial
from hkit.config import SuiteConfig
from hkit.errors import GridTooCoarse
from hkit.radial import (
    MappedLevel,
    RadialProblem,
    _NotAKnotSpline,
    coulomb_level,
    duality_map,
    effective_lambda,
    oscillator_level,
    solve_coulomb,
    solve_modified,
    solve_oscillator,
    substitution_residual_check,
)
from hkit.suites import run_radial
from hkit.transforms import IntPoly


# ----- closed-form ladders -----------------------------------------------------

def test_effective_lambda():
    assert effective_lambda(8, 0) == Fraction(35, 4)
    assert effective_lambda(8, 2) == 16 + Fraction(35, 4)
    assert effective_lambda(5, 0) == 2
    assert effective_lambda(3, 0) == 0


@pytest.mark.parametrize("dim,ell,omega", [(8, 0, 1.0), (8, 2, 1.0), (4, 0, 2.0)])
def test_oscillator_ladder(dim, ell, omega):
    prob = RadialProblem.oscillator(dim, ell, omega)
    res = solve_oscillator(prob, levels=3)
    for k, e in enumerate(res.eigenvalues):
        want = oscillator_level(prob, k)
        assert abs(float(e) - want) / want < 1e-6


@pytest.mark.parametrize("d,l", [(5, 0.0), (5, 0.5), (5, 1.0), (3, 0.0)])
def test_coulomb_ladder(d, l):
    prob = RadialProblem.coulomb(d, l, 1.0)
    res = solve_coulomb(prob, levels=2)
    for k, e in enumerate(res.eigenvalues):
        want = coulomb_level(prob, k)
        assert abs(float(e) - want) / abs(want) < 1e-5


def test_coulomb_half_integer_spot():
    """l = 1/2 in five dimensions lands on the N = 1 bound level."""
    prob = RadialProblem.coulomb(5, 0.5, 1.0)
    res = solve_coulomb(prob, levels=1)
    assert float(res.eigenvalues[0]) == pytest.approx(-Fraction(2, 25), rel=1e-5)


def test_hydrogen_ground_state():
    prob = RadialProblem.coulomb(3, 0.0, 1.0)
    res = solve_coulomb(prob, levels=1)
    assert float(res.eigenvalues[0]) == pytest.approx(-0.5, rel=1e-5)


# ----- grid honesty ------------------------------------------------------------

def test_grid_too_coarse_raises():
    prob = RadialProblem.coulomb(5, 0.0, 1.0, n_points=64)
    with pytest.raises(GridTooCoarse):
        solve_coulomb(prob, levels=1)
    prob = RadialProblem.oscillator(8, 0, 1.0, n_points=64)
    with pytest.raises(GridTooCoarse):
        solve_oscillator(prob, levels=4)


def test_convergence_is_second_order():
    """Raw grid errors shrink by about 4x when the step halves."""
    errors = []
    prob = RadialProblem.oscillator(8, 0, 1.0)
    for n in (512, 1024):
        _, vals, _, _ = radial._fd_eigen(effective_lambda(8, 0),
                                         radial._scaled_potential(prob), 12.0, n, 1)
        errors.append(abs(float(vals[0]) / 2 - 4.0))  # vals are 2m E / hbar^2
    ratio = errors[0] / errors[1]
    assert 3.3 < ratio < 4.8


def test_matrix_residuals_small():
    res = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=3)
    for r in res.residual_norms:
        assert r < 1e-12
    # Richardson refinement reports the halved-step grid.
    assert len(res.grid) >= res.problem.n_points
    assert res.grid[0] > 0 and res.grid[-1] < res.box


@pytest.mark.parametrize("solve,prob,rel", [
    (solve_oscillator, RadialProblem.oscillator(8, 0, 1.0, n_points=65536), 1e-12),
    (solve_coulomb, RadialProblem.coulomb(5, 0.0, 1.0, n_points=65536), 1e-11),
], ids=["oscillator", "coulomb"])
def test_fine_grid_levels_are_below_the_bisection_floor(solve, prob, rel):
    """On 131073 fine points, bisection to eps ||T|| held every level to
    about 1e-8; Richardson-refined levels now sit at truncation error."""
    level = oscillator_level if prob.kind == "oscillator" else coulomb_level
    res = solve(prob, levels=3)
    for k, e in enumerate(res.eigenvalues):
        want = level(prob, k)
        assert abs(float(e) - want) / abs(want) < rel


@pytest.mark.parametrize("levels", [1, 3])
def test_a_pilot_shift_on_the_wrong_level_raises(monkeypatch, levels):
    """A pilot that hands level 0 the shift of level 2 sends inverse
    iteration to level 2: the certificate must refuse it."""
    pilot = radial._pilot_eigen

    def shifted(lam, wfun, box, n, k):
        x, vals, vecs = pilot(lam, wfun, box, n, 3)
        vals[0] = vals[2]
        return x, vals[:k], vecs[:, :k]

    monkeypatch.setattr(radial, "_pilot_eigen", shifted)
    with pytest.raises(GridTooCoarse, match="did not single out"):
        solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=levels)


def test_fd_eigen_runs_on_the_coarse_and_fine_grid_only(monkeypatch):
    """Each refined solve calls `_fd_eigen` on n and 2n + 1 points; the
    pilot solves, modified's box pilot included, do not go through it."""
    fd_eigen, sizes = radial._fd_eigen, []

    def counted(*args):
        sizes.append(args[3])
        return fd_eigen(*args)

    monkeypatch.setattr(radial, "_fd_eigen", counted)
    solve_oscillator(RadialProblem.oscillator(8, 0, 1.0, n_points=1024), levels=2)
    solve_modified(RadialProblem.modified((0.0, 0.5), n_points=1024), levels=2)
    assert sizes == [1024, 2049, 1024, 2049]


def test_convergence_metadata():
    res = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=2)
    assert len(res.convergence) == 2
    for c in res.convergence:
        assert 0 <= c < 1e-3


# ----- wall placement -----------------------------------------------------------

def _auto_box_one_point_at_a_time(problem, scaled_top):
    """The wall search as a scalar loop, one `forbidden` call per point."""
    lam = effective_lambda(problem.dim, problem.ell)
    w = radial._scaled_potential(problem)

    def forbidden(x):
        return lam / (x * x) + float(w(np.asarray(x))) - scaled_top

    xs = np.geomspace(1e-6, 1e7, 1400)
    vals = np.array([forbidden(x) for x in xs])
    inside = np.nonzero(vals < 0)[0]
    lo = xs[inside[-1]]
    hi = xs[min(inside[-1] + 1, xs.size - 1)]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if forbidden(mid) < 0:
            lo = mid
        else:
            hi = mid
    turn = hi
    step = turn / 400.0
    action = 0.0
    x = turn
    cap = radial._BOX_CAP_FACTOR * turn
    prev = 0.0
    while action < radial._ACTION_TARGET and x < cap:
        x += step
        cur = math.sqrt(max(forbidden(x), 0.0))
        action += 0.5 * (prev + cur) * step
        prev = cur
    return max(x, 1.5 * turn)


@pytest.mark.parametrize("prob,scaled_top", [
    (RadialProblem.oscillator(8, 0, 1.0), 16.0),
    (RadialProblem.oscillator(8, 2, 1.0), 20.0),
    (RadialProblem.oscillator(4, 0, 2.0), 40.0),
    (RadialProblem.coulomb(5, 0.0, 1.0), -2.0 / 16.0),
    (RadialProblem.coulomb(5, 0.0, 1.5), -4.5 / 16.0),
    (RadialProblem.coulomb(5, 0.5, 1.0), -2.0 / 25.0),
    (RadialProblem.coulomb(3, 0.0, 1.0), -1.0 / 4.0),
    (RadialProblem.modified((0.0, 0.5, 0.1)), 2.0 * 11.0),
    (RadialProblem.oscillator(8, 0, 1e4), 1.6e5),
], ids=["osc-8-0", "osc-8-2", "osc-4-0", "cou-5-0", "cou-5-0-e2", "cou-5-half",
        "cou-3-0", "modified", "osc-8-0-short"])
def test_auto_box_matches_the_scalar_walk(prob, scaled_top):
    """The array scan and the cumsum action walk give the scalar loop's box
    bit for bit."""
    assert radial._auto_box(prob, scaled_top) == _auto_box_one_point_at_a_time(prob, scaled_top)


@pytest.mark.parametrize("prob,scaled_top,scan", [
    (RadialProblem.coulomb(5, 0.0, 1.0), -10.0, r"\[1e-06, 1e\+07\]"),
    # omega^2 underflows to 0: nothing confines, the last point is allowed
    (RadialProblem.oscillator(8, 0, 1e-200), 8e-200, r"\[1e\+94, 1e\+107\]"),
], ids=["cou-below-the-well", "osc-unconfined"])
def test_auto_box_without_turning_point_raises(prob, scaled_top, scan):
    """A turning point that neither scan brackets is an error naming the
    last range scanned, not a wall at the cap."""
    with pytest.raises(ValueError, match=scan):
        radial._auto_box(prob, scaled_top)


@pytest.mark.parametrize("prob", [
    RadialProblem.oscillator(8, 0, 1e-20),
    RadialProblem.oscillator(6, 3, 1e-16),
    RadialProblem.coulomb(5, 0.0, 1e-30),
], ids=["osc-1e-20", "osc-1e-16-L3", "cou-1e-30"])
def test_turning_point_past_the_fixed_scan(prob):
    """Where the turning point lies past 1e7, the scan in the problem's own
    length finds it, and the levels keep the oscillator's accuracy."""
    solve, level = ((solve_oscillator, oscillator_level) if prob.kind == "oscillator"
                    else (solve_coulomb, coulomb_level))
    res = solve(prob, levels=3)
    assert res.box > 1e7
    for k, e in enumerate(res.eigenvalues):
        assert float(e) == pytest.approx(level(prob, k), rel=1e-6)


# ----- problem validation --------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError):
        RadialProblem.oscillator(2, 0, 1.0)  # dim must exceed 2
    with pytest.raises(ValueError):
        RadialProblem.oscillator(8, -1, 1.0)
    with pytest.raises(ValueError):
        RadialProblem.coulomb(5, 0.0, -1.0)
    with pytest.raises(ValueError):
        RadialProblem.modified((1.0,))  # needs at least two coefficients
    with pytest.raises(ValueError):
        RadialProblem.oscillator(8, 0, 1.0, n_points=32)


@pytest.mark.parametrize("make,name", [
    (lambda bad: RadialProblem.oscillator(8, 0, bad), "omega"),
    (lambda bad: RadialProblem.coulomb(5, 0.0, bad), "e2"),
    (lambda bad: RadialProblem.modified((0.0, 1.0, bad)), "coeffs"),
    (lambda bad: RadialProblem.oscillator(8, 0, 1.0, box=bad), "box"),
], ids=["omega", "e2", "coeffs", "box"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_rejects_non_finite_data(make, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(bad)


# ----- duality map ----------------------------------------------------------------

def test_duality_map_forward():
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=3)
    mapped = duality_map(osc)
    assert len(mapped) == 3
    for m in mapped:
        assert m.dual_problem.kind == "coulomb"
        assert m.dual_problem.dim == 5
        assert m.dual_problem.ell == 0
        assert m.predicted == pytest.approx(-0.125, rel=1e-9)
        dual = solve_coulomb(m.dual_problem, levels=m.dual_index + 1)
        got = float(dual.eigenvalues[m.dual_index])
        assert got == pytest.approx(m.predicted, rel=1e-6)


def test_duality_map_forward_higher_angular():
    osc = solve_oscillator(RadialProblem.oscillator(8, 2, 1.0), levels=1)
    mapped = duality_map(osc)
    assert mapped[0].dual_problem.ell == 1.0
    dual = solve_coulomb(mapped[0].dual_problem, levels=1)
    assert float(dual.eigenvalues[0]) == pytest.approx(mapped[0].predicted,
                                                       rel=1e-6)


def _backward_map(result):
    """The inverse of `duality_map`: bound level eps_n turns into the
    frequency w = sqrt(-8 eps_n / m) of an oscillator in D = 2(d - 1)
    dimensions with L = 2 l, whose n-th level must sit at E = 4 e2."""
    src = result.problem
    out = []
    for n, eps in enumerate(result.eigenvalues):
        w = math.sqrt(max(-8.0 * float(eps) / src.mass, 0.0))
        dual = RadialProblem.oscillator(int(round(2 * (src.dim - 1))),
                                        int(round(2 * src.ell)), w, mass=src.mass,
                                        hbar=src.hbar, n_points=src.n_points)
        out.append(MappedLevel(n, float(eps), dual, n, 4.0 * src.e2))
    return out


def test_duality_map_backward():
    cou = solve_coulomb(RadialProblem.coulomb(5, 1.0, 1.0), levels=2)
    mapped = _backward_map(cou)
    for m in mapped:
        assert m.dual_problem.kind == "oscillator"
        assert m.dual_problem.dim == 8
        assert m.dual_problem.ell == 2
        assert m.predicted == pytest.approx(4.0, rel=1e-6)
        dual = solve_oscillator(m.dual_problem, levels=m.dual_index + 1)
        got = float(dual.eigenvalues[m.dual_index])
        assert got == pytest.approx(m.predicted, rel=1e-5)


def test_duality_map_rejects_unknown_direction():
    """The map runs from oscillator to Coulomb only; a Coulomb source,
    the backward direction, is refused."""
    cou = solve_coulomb(RadialProblem.coulomb(5, 1.0, 1.0), levels=1)
    with pytest.raises(ValueError, match="oscillator source"):
        duality_map(cou)


# The radial operators with 8 m u^2 cleared, in (u, D, L, m, hbar, omega, E,
# rho0, rho1, rho2); rho_k stands for the k-th derivative of rho at u^2.
_U, _D, _L, _M, _HBAR, _W, _E, _R0, _R1, _R2 = IntPoly.variables(10)


def _oscillator_cleared(R, dR, ddR):
    """8 m u^2 O_D[R], O_D = -(hbar^2 / 2m) (R'' + (D - 1) R' / u
    - L (L + D - 2) R / u^2) + m w^2 u^2 R / 2 - E R."""
    u = _U
    return (-4 * _HBAR ** 2 * (u ** 2 * ddR + (_D - 1) * u * dR
                               - _L * (_L + _D - 2) * R)
            + 4 * _M ** 2 * _W ** 2 * u ** 4 * R - 8 * _M * _E * u ** 2 * R)


def _coulomb_cleared(d2, l2, e4, eps8):
    """8 m u^2 4 u^2 C_d[rho] at r = u^2, C_d = -(hbar^2 / 2m) (rho''
    + (d - 1) rho' / r - l (l + d - 2) rho / r^2) - e2 rho / r - eps rho,
    given 2d, 2l, 4 e2 and 8 eps."""
    u = _U
    return (-4 * _HBAR ** 2 * (4 * u ** 4 * _R2 + (2 * d2 - 4) * u ** 2 * _R1
                               - l2 * (l2 + d2 - 4) * _R0)
            - 8 * _M * e4 * u ** 2 * _R0 - 4 * _M * eps8 * u ** 4 * _R0)


def test_duality_is_an_exact_operator_identity():
    """O_D[rho(u^2)] = 4 u^2 C_d[rho](u^2) for every rho, D and L, with the
    constants of `duality_map`: d = D/2 + 1, l = L/2, e2 = E/4 and
    eps = -m w^2 / 8.  rho(u^2)' = 2 u rho1 and rho(u^2)'' = 2 rho1
    + 4 u^2 rho2; D and L are variables, so this covers D = 1, 2, 4, 8 and
    every L at once."""
    lhs = _oscillator_cleared(_R0, 2 * _U * _R1, 2 * _R1 + 4 * _U ** 2 * _R2)
    mw2 = _M * _W ** 2
    assert lhs == _coulomb_cleared(_D + 2, _L, _E, -mw2)
    # Each wrong constant leaves a residual: d = D/2, l = L, e2 = E/2.
    for wrong in ((_D, _L, _E, -mw2), (_D + 2, 2 * _L, _E, -mw2),
                  (_D + 2, _L, 2 * _E, -mw2)):
        assert (lhs - _coulomb_cleared(*wrong)).terms


def test_duality_scan_script_runs(capsys):
    """scripts/duality_scan.py at L = 0 with one level prints one closing
    row and exits 0."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "duality_scan.py"
    spec = importlib.util.spec_from_file_location("duality_scan", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--L-max", "0", "--levels", "1"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.endswith("closes")]
    assert len(rows) == 1


# ----- substitution check ----------------------------------------------------------

def test_substitution_residual_clean():
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=1)
    sub = substitution_residual_check(osc, 0)
    assert sub.passed
    assert sub.rel_residual < 1e-4
    assert sub.n_samples >= 32


def test_substitution_residual_detects_wrong_energy():
    """Feeding a 10% wrong dual energy must blow the residual up."""
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=1)
    clean = substitution_residual_check(osc, 0)
    wrong = substitution_residual_check(osc, 0, eps=clean.eps * 1.1)
    assert not wrong.passed
    assert wrong.rel_residual > 1e-3
    assert wrong.rel_residual > 100 * clean.rel_residual


@pytest.mark.parametrize("level", [-1, 2])
def test_substitution_residual_rejects_a_level_not_retained(level):
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=2)
    with pytest.raises(ValueError, match=f"level {level} not retained"):
        substitution_residual_check(osc, level)


def _oscillator_r_grid():
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=1)
    u = osc.grid
    return u * u, osc.eigenvectors[:, 0] * u ** -3.5


def _seeded_grid():
    rng = np.random.default_rng(20240814)
    x = np.cumsum(rng.uniform(0.01, 1.0, 257))
    return x, np.sin(x) * rng.normal(size=x.size)


@pytest.mark.parametrize("grid", [_oscillator_r_grid, _seeded_grid],
                         ids=["oscillator-r", "seeded"])
def test_spline_matches_scipy_cubic_spline(grid):
    """The substitution check's spline returns the bits of
    scipy.interpolate.CubicSpline, at both end knots, at interior knots
    and between them, for the value and the first two derivatives."""
    from scipy.interpolate import CubicSpline

    x, y = grid()
    ref, got = CubicSpline(x, y), _NotAKnotSpline(x, y)
    mids = 0.5 * (x[:-1] + x[1:])
    query = np.concatenate((x[[0, -1]], x[1:-1:5], mids[::7]))
    for nu in (0, 1, 2):
        assert np.array_equal(got(query, nu), ref(query, nu))


@pytest.mark.parametrize("grid", [_oscillator_r_grid, _seeded_grid],
                         ids=["oscillator-r", "seeded"])
def test_spline_on_a_window_matches_scipy_cubic_spline(grid):
    """Queried only inside a middle sub-range, as the substitution check
    queries it, the spline still returns CubicSpline's bits."""
    from scipy.interpolate import CubicSpline

    x, y = grid()
    ref, got = CubicSpline(x, y), _NotAKnotSpline(x, y)
    lo, hi = x.size // 3, 2 * x.size // 3
    mids = 0.5 * (x[lo:hi - 1] + x[lo + 1:hi])
    query = np.sort(np.concatenate((x[lo:hi:3], mids[::5])))
    for nu in (0, 1, 2):
        assert np.array_equal(got(query, nu), ref(query, nu))


# ----- modified potentials -----------------------------------------------------------

def test_modified_pure_quadratic_is_oscillator():
    prob = RadialProblem.modified((0.0, 0.5))
    res = solve_modified(prob, levels=2)
    assert float(res.eigenvalues[0]) == pytest.approx(4.0, rel=1e-6)
    assert float(res.eigenvalues[1]) == pytest.approx(6.0, rel=1e-6)


def test_modified_constant_shift():
    res = solve_modified(RadialProblem.modified((2.0, 0.5)), levels=1)
    assert float(res.eigenvalues[0]) == pytest.approx(6.0, rel=1e-6)


def test_modified_quartic_levels_ordered():
    res = solve_modified(RadialProblem.modified((0.0, 0.5, 0.1)), levels=3)
    vals = [float(v) for v in res.eigenvalues]
    assert vals == sorted(vals)
    assert vals[0] > 4.0  # quartic term raises every level
    for c in res.convergence:
        assert c < 1e-4


def test_modified_pilot_guess_below_the_well():
    """A quartic-dominated well lies above the harmonic guess of the box
    pilot; the pilot lifts the guess into the well and the solve succeeds,
    with the levels the potential-minimum fallback once gave."""
    prob = RadialProblem.modified((0.0, 0.01, 1.0))
    lam, w = radial.effective_lambda(8, 0), radial._scaled_potential(prob)
    xs = radial._SCAN
    guess = 2 * (2 * 0.01) ** 0.5 * (2 * 4 + 4)  # scaled c0 + hbar w_eff (2 (levels + 1) + D/2)
    assert guess < float(np.min(lam / (xs * xs) + w(xs)))
    res = solve_modified(prob, levels=3)
    ref = (8.105609361737505, 14.527236065297418, 21.63337471471846)
    for got, want in zip(res.eigenvalues, ref):
        assert float(got) == pytest.approx(want, rel=1e-9)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_radial_suite_holds_one_fine_solve_at_a_time():
    """The radial suite's heap peak is that of one fine-grid solve: each
    solve's result is used up before the next solve starts, and the
    substitution check's spline stays below a solve."""
    prob = RadialProblem.oscillator(8, 0, 1.0)
    solve_oscillator(prob, levels=3)  # imports scipy.linalg outside the trace
    one_solve = _traced_peak(lambda: solve_oscillator(prob, levels=3))
    suite = _traced_peak(lambda: run_radial(SuiteConfig()))
    assert suite <= 1.25 * one_solve


def test_radial_runtime_budget():
    start = time.perf_counter()
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=3)
    for m in duality_map(osc):
        solve_coulomb(m.dual_problem, levels=m.dual_index + 1)
    substitution_residual_check(osc, 0)
    assert time.perf_counter() - start < 30.0
