"""Topological charge: the exact integral of the angular listing, the
listing quadrature behind the node-doubling row, and the Cartesian field
quadrature (conftest.field_charge) that cross-checks both on either chart."""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations
from math import pi

import numpy as np
import pytest

from hkit import gauge, topology
from hkit.config import SuiteConfig
from hkit.exact import CHART_A, CHART_B
from hkit.gauge import Y_ANGULAR, field_tensor
from hkit.operators import perm_sign
from hkit.report import MODE_EXACT, MODE_NUMERIC
from hkit.suites import run_charge
from hkit.topology import charge_components, listing_quadrature
from hkit.transforms import HyperSpherical, IntPoly, hyperspherical_inverse

from conftest import (angular_jacobian, field_charge, inverse_jacobian,
                      sqrt_det_metric_closed)
from reference import evaluate

THIRDS = (Fraction(1, 3),) * 3
EXACT_ROWS = ("total", "components", "radius-independence")


def _rows(cfg=None):
    return {r.relation: r for r in run_charge(cfg or SuiteConfig())}


def _distance(got, want):
    return max(abs(g - float(w)) for g, w in zip(got, want))


def test_unit_charge():
    """q^a = 1/3 exactly, and the field quadrature agrees on both charts."""
    q = charge_components()
    assert q == THIRDS
    for chart in (CHART_A, CHART_B):
        assert _distance(field_charge((16, 16, 8, 8), 1.0, chart), q) < 1e-12


def test_components_sum_to_total():
    assert sum(charge_components()) == 1
    rows = _rows()
    for name in EXACT_ROWS:
        assert rows[name].mode == MODE_EXACT
        assert rows[name].residual == 0.0 and rows[name].passed
    assert "q = 1;" in rows["total"].detail
    assert "q^a = 1/3, 1/3, 1/3;" in rows["components"].detail
    assert "angular listing proved" in rows["components"].detail


def test_node_doubling_estimate():
    row = _rows()["node-doubling"]
    assert row.mode == MODE_NUMERIC and row.passed
    assert row.residual < 1e-12
    assert row.anchor == "raising node counts to the exact counts leaves q unchanged"
    assert row.residual == _distance(listing_quadrature((16, 16, 8, 8)), THIRDS)


def test_radius_independence():
    """The exact row rests on the listing, which has no r; the field
    quadrature, which has one, agrees at every radius on both charts."""
    for radius in (0.5, 2.0, 17.0):
        for chart in (CHART_A, CHART_B):
            assert _distance(field_charge((16, 16, 8, 8), radius, chart),
                             THIRDS) < 1e-12


def test_coarse_grid_is_honest():
    """The node-doubling residual is the true defect of its grid: the
    listing quadrature matches the field quadrature on the same nodes,
    below the exact counts and above them."""
    for nodes in ((1, 1, 1, 1), (1, 16, 8, 8), (6, 6, 4, 4), (16, 16, 8, 8)):
        listing = listing_quadrature(nodes)
        assert _distance(listing, field_charge(nodes)) < 1e-12
        assert _rows(SuiteConfig(charge_nodes=nodes))["node-doubling"].residual \
            == _distance(listing, THIRDS)


def test_runtime_budget():
    start = time.perf_counter()
    run_charge(SuiteConfig())
    assert time.perf_counter() - start < 1.0


def test_result_fields():
    q = charge_components()
    assert all(type(c) is Fraction for c in q)
    assert all(type(c) is float for c in listing_quadrature((16, 16, 8, 8)))


# ----- mutants -------------------------------------------------------------------

def _flip(monkeypatch, key):
    k, *rest = gauge._ANGULAR_LISTING[key]
    monkeypatch.setitem(gauge._ANGULAR_LISTING, key, (-k, *rest))


def test_flipped_theta_alpha_entry_reverses_q3(monkeypatch):
    _flip(monkeypatch, (3, "theta", "alpha"))
    assert charge_components()[2] == Fraction(-1, 3)
    rows = _rows()
    assert not rows["total"].passed and not rows["components"].passed


def test_flipped_theta_gamma_entry_fails_through_the_listing_gate(monkeypatch):
    """F^3_(theta gamma) does not enter q^3, as F^3_(beta alpha) vanishes,
    so only the listing check in the same run can see the flip."""
    _flip(monkeypatch, (3, "theta", "gamma"))
    assert charge_components() == THIRDS
    rows = _rows()
    for name in EXACT_ROWS:
        assert not rows[name].passed and rows[name].residual is None
    assert "1 of 30 components differ" in rows["total"].detail


def test_flipped_alpha_gamma_entry_cancels_q1(monkeypatch):
    _flip(monkeypatch, (1, "alpha", "gamma"))
    assert charge_components()[0] == 0


def _sin_integrates_to_one(monkeypatch):
    """The integral of sin(theta) over [0, pi] read as 1 instead of 2."""
    wallis = topology._wallis
    monkeypatch.setattr(topology, "_wallis", lambda m, n, periods: (
        (Fraction(1), 0) if (m, n, periods) == (1, 0, 1) else wallis(m, n, periods)))


def _full_period_as_half(monkeypatch):
    """The integral over [0, 2 pi] taken over [0, pi]."""
    wallis = topology._wallis
    monkeypatch.setattr(topology, "_wallis",
                        lambda m, n, periods: wallis(m, n, 1))


@pytest.mark.parametrize("mutant", [_sin_integrates_to_one, _full_period_as_half],
                         ids=["sin-one", "full-period"])
def test_integrator_mutant_fails_the_charge_rows(monkeypatch, mutant):
    mutant(monkeypatch)
    assert charge_components() != THIRDS
    rows = _rows()
    assert not rows["total"].passed and not rows["components"].passed


def test_density_has_no_odd_cosine_power():
    """Why an integrator that forgets to zero odd cosine powers cannot move
    q: no term of any density carries one, each density being a multiple of
    sin^3(theta) sin(beta) (sin^2(alpha) + cos^2(alpha)) or of
    sin^3(theta) sin(beta)."""
    st, ct, sb, cb, sa, ca = IntPoly.variables(6)
    factor = {"sin a": sa, "cos a": ca, "sin b": sb, "cos b": cb}
    for a in (1, 2, 3):
        exps = topology._density(a, st, factor).terms
        assert exps and all(e[1] % 2 == e[3] % 2 == e[5] % 2 == 0 for e in exps)


# ----- the pointwise facts behind the field quadrature -----------------------

# Where _angular_field_at puts each coordinate.
_XBAR_INDEX = {"r": 0, "theta": 1, "alpha": 2, "beta": 3, "gamma": 4}


def _random_points(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield HyperSpherical(
            r=rng.uniform(0.5, 2.0),
            theta=rng.uniform(0.3, pi - 0.3),
            alpha=rng.uniform(0.1, 2 * pi - 0.1),
            beta=rng.uniform(0.3, pi - 0.3),
            gamma=rng.uniform(0.1, 4 * pi - 0.1),
        )


def _angular_field_at(a, h, chart=CHART_A):
    """F in (r, theta, alpha, beta, gamma) components by Jacobian pullback."""
    p = [float(v) for v in hyperspherical_inverse(h)]
    F = field_tensor(a, chart)
    cartesian = np.array([[evaluate(F[i][j], p).real if i != j else 0.0
                           for j in range(5)] for i in range(5)])
    J = np.array(inverse_jacobian(h))
    return J @ cartesian @ J.T


def _sqrt_det_metric(h):
    """sqrt det g of the radius-r sphere, g = J J^T in (theta, beta, alpha,
    gamma) order."""
    J = np.array(angular_jacobian(h))
    return float(np.sqrt(np.linalg.det(J @ J.T)))


def _charge_density(h, chart=CHART_A):
    """Sum over a of *F^(a mn) F^a_mn at one point, by the metric route:
    the pointwise reference for the quadrature's integrand."""
    eps = np.zeros((4, 4, 4, 4))
    for perm in permutations(range(4)):
        eps[perm] = perm_sign(perm)
    rows = [_XBAR_INDEX[c] for c in Y_ANGULAR]
    total = 0.0
    for a in (1, 2, 3):
        Fb = _angular_field_at(a, h, chart)[np.ix_(rows, rows)]
        dual_up = np.einsum("mnrs,rs->mn", eps, Fb) / (2 * _sqrt_det_metric(h))
        total += float(np.einsum("mn,mn->", dual_up, Fb))
    return total


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_density_is_twelve_over_r4(chart):
    for h in _random_points(20, seed=11):
        assert _charge_density(h, chart) * h.r ** 4 == pytest.approx(12.0, rel=1e-11)


def test_volume_factor_closed_form():
    for h in _random_points(20, seed=12):
        assert _sqrt_det_metric(h) == pytest.approx(sqrt_det_metric_closed(h), rel=1e-12)


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_theta_count_one_reports_its_defect(chart):
    """One theta node reads sin^2 at cos(theta) = 0 as 1 where its mean is
    2/3: each q^a comes out 1/2, and q 3/2, a defect of 0.5 on both routes
    and both charts, which node-doubling reports as 1/6 per generator."""
    for got in (listing_quadrature((1, 1, 1, 1)), field_charge((1, 1, 1, 1), 1.0, chart)):
        assert abs(sum(got) - 1.0) == pytest.approx(0.5, abs=1e-12)
        assert _distance(got, THIRDS) == pytest.approx(1 / 6, abs=1e-12)
    row = _rows(SuiteConfig(charge_nodes=(1, 1, 1, 1)))["node-doubling"]
    assert row.residual == pytest.approx(1 / 6, abs=1e-12)
    assert not row.passed


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_exact_counts_need_no_estimate(chart):
    """(2, 1, 1, 1) nodes integrate the density exactly, up to rounding, on
    the listing and on the field."""
    assert _distance(listing_quadrature((2, 1, 1, 1)), THIRDS) < 1e-12
    assert _distance(field_charge((2, 1, 1, 1), 1.0, chart), THIRDS) < 1e-12
