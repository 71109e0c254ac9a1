"""Radial eigensolver: closed-form ladders, grid honesty, the energy-coupling
swap between the two problems, and the substitution check."""

from __future__ import annotations

import importlib.util
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hkit import radial
from hkit.errors import GridTooCoarse
from hkit.radial import (
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
        solve_oscillator(prob, levels=1, rtol=1e-9)


def test_convergence_is_second_order():
    """Raw grid errors shrink by about 4x when the step halves."""
    errors = []
    for n in (512, 1024):
        prob = RadialProblem.oscillator(8, 0, 1.0, n_points=n, box=12.0)
        res = solve_oscillator(prob, levels=1, refine=False)
        errors.append(abs(float(res.eigenvalues[0]) - 4.0))
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
    step = max(turn, 1.0) / 400.0
    action = 0.0
    x = turn
    cap = radial._BOX_CAP_FACTOR * max(turn, 1.0)
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
], ids=["osc-8-0", "osc-8-2", "osc-4-0", "cou-5-0", "cou-5-0-e2", "cou-5-half",
        "cou-3-0", "modified"])
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


def test_duality_map_backward():
    cou = solve_coulomb(RadialProblem.coulomb(5, 1.0, 1.0), levels=2)
    mapped = duality_map(cou, direction="coulomb->oscillator")
    for m in mapped:
        assert m.dual_problem.kind == "oscillator"
        assert m.dual_problem.dim == 8
        assert m.dual_problem.ell == 2
        assert m.predicted == pytest.approx(4.0, rel=1e-6)
        dual = solve_oscillator(m.dual_problem, levels=m.dual_index + 1)
        got = float(dual.eigenvalues[m.dual_index])
        assert got == pytest.approx(m.predicted, rel=1e-5)


def test_duality_map_rejects_unknown_direction():
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=1)
    with pytest.raises(ValueError):
        duality_map(osc, direction="sideways")


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


def test_radial_runtime_budget():
    start = time.perf_counter()
    osc = solve_oscillator(RadialProblem.oscillator(8, 0, 1.0), levels=3)
    for m in duality_map(osc):
        solve_coulomb(m.dual_problem, levels=m.dual_index + 1)
    substitution_residual_check(osc, 0)
    assert time.perf_counter() - start < 30.0
