"""Topological charge quadrature on the four-sphere."""

from __future__ import annotations

import time
from itertools import permutations
from math import pi

import numpy as np
import pytest

from hkit.exact import CHART_A, CHART_B, Point5
from hkit.gauge import Y_ANGULAR, field_tensor, sqrt_det_metric_closed
from hkit.operators import perm_sign
from hkit.topology import (
    EXACT_NODES,
    ChargeResult,
    QuadratureSpec,
    topological_charge,
)
from hkit.transforms import HyperSpherical, hyperspherical_inverse

from conftest import angular_jacobian, inverse_jacobian


def test_unit_charge():
    res = topological_charge(QuadratureSpec((16, 16, 8, 8), 1.0))
    assert abs(res.total - 1.0) < 1e-10
    assert len(res.components) == 3
    for q in res.components:
        assert abs(q - 1.0 / 3.0) < 1e-10


def test_components_sum_to_total():
    res = topological_charge()
    assert sum(res.components) == pytest.approx(res.total, abs=1e-14)


def test_node_doubling_estimate():
    res = topological_charge(QuadratureSpec((16, 16, 8, 8), 1.0))
    assert res.estimated_error < 1e-12


def test_radius_independence():
    base = topological_charge(QuadratureSpec((16, 16, 8, 8), 1.0))
    for radius in (0.5, 2.0, 17.0):
        other = topological_charge(QuadratureSpec((16, 16, 8, 8), radius))
        assert abs(other.total - base.total) < 1e-12
        assert other.radius == radius


def test_coarse_grid_is_honest():
    """Fewer nodes gives a larger internal error estimate, and the estimate
    bounds the true defect within an order of magnitude."""
    coarse = topological_charge(QuadratureSpec((6, 6, 4, 4), 1.0))
    fine = topological_charge(QuadratureSpec((16, 16, 8, 8), 1.0))
    assert coarse.estimated_error >= fine.estimated_error
    assert abs(coarse.total - 1.0) < max(10 * coarse.estimated_error, 1e-10)


def test_runtime_budget():
    start = time.perf_counter()
    topological_charge(QuadratureSpec((16, 16, 8, 8), 1.0))
    assert time.perf_counter() - start < 1.0


def test_result_fields():
    res = topological_charge()
    assert isinstance(res, ChargeResult)
    assert res.nodes == (16, 16, 8, 8)
    assert res.radius == 1.0


# ----- the facts behind the exactness counts ---------------------------------

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
    p = Point5([float(v) for v in hyperspherical_inverse(h)])
    F = field_tensor(a, chart)
    cartesian = np.array([[F[i][j].evaluate(p).real if i != j else 0.0
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
    res = topological_charge(QuadratureSpec((1, 1, 1, 1), 1.0), chart)
    defect = abs(res.total - 1.0)
    assert defect == pytest.approx(0.5, abs=1e-12)
    assert res.estimated_error == pytest.approx(0.5, abs=1e-12)
    assert defect <= res.estimated_error + 1e-12


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_exact_counts_need_no_estimate(chart):
    res = topological_charge(QuadratureSpec(EXACT_NODES, 1.0), chart)
    assert EXACT_NODES == (2, 1, 1, 1)
    assert res.estimated_error == 0.0
    assert abs(res.total - 1.0) < 1e-12
