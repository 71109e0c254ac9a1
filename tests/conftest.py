"""Shared fixtures: deterministic seeds, exact rational sample points, the
float Jacobians of the hyperspherical inverse map, the closed volume factor
and the field quadrature of the topological charge."""

from __future__ import annotations

import random
from fractions import Fraction
from math import pi, sin

import numpy as np
import pytest

from hkit.exact import CHART_A
from hkit.gauge import field_tensor
from hkit.transforms import (HyperSpherical, angle_trig, hurwitz_map,
                             sphere_frame, sphere_point)

from reference import radius

SEED = 20240814


@pytest.fixture
def seed():
    return SEED


@pytest.fixture
def rng():
    return random.Random(SEED)


def rational_points(count: int, seed: int = SEED, avoid_axis: bool = True):
    """Exact points with rational radius, built as bilinear images.

    Images of rational 8-vectors always have a rational radius, which is
    what exact evaluation (`reference.evaluate`) requires.  With avoid_axis
    the points also stay off both half-axes so every chart denominator is
    nonzero.
    """
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        u = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for _ in range(8)]
        x = hurwitz_map(u)
        rr = radius(x)
        if rr == 0:
            continue
        if avoid_axis and (rr + x[0] == 0 or rr - x[0] == 0
                           or (x[1] == 0 and x[2] == 0)
                           or (x[3] == 0 and x[4] == 0)):
            continue
        points.append(x)
    return points


@pytest.fixture
def sample_points():
    return rational_points(8)


def angular_jacobian(h: HyperSpherical):
    """Rows d x_m / d (theta, beta, alpha, gamma) of the inverse map, the
    tangent frame of the radius-r sphere; the angles may be arrays."""
    return [[v / 2 for v in row] for row in sphere_frame(h.r, *angle_trig(h))]


def inverse_jacobian(h: HyperSpherical):
    """Rows d x_m / d (r, theta, alpha, beta, gamma) of the inverse map."""
    theta, beta, alpha, gamma = angular_jacobian(h)
    return [list(sphere_point(1.0, *angle_trig(h))), theta, alpha, beta, gamma]


def sqrt_det_metric_closed(h: HyperSpherical) -> float:
    """r^4 sin^3(theta) sin(beta) / 8, the closed form of the volume factor."""
    return h.r ** 4 * sin(h.theta) ** 3 * sin(h.beta) / 8


def _compile(e):
    """ScalarExpr to a vectorized evaluator on (xs, r, axis) arrays."""
    terms = []
    for (m, rp, ap), c in e.items():
        if c.b != 0:
            raise ValueError("field coefficients must be real")
        terms.append((c.a / c.d, m, rp, ap))

    def fn(xs, r, axis):
        out = np.zeros_like(r)
        for coeff, m, rp, ap in terms:
            t = np.full_like(r, coeff)
            for i, mi in enumerate(m):
                if mi:
                    t = t * xs[i] ** mi
            if rp:
                t = t * r ** float(rp)
            if ap:
                t = t * axis ** float(ap)
            out += t
        return out

    return fn


def field_charge(nodes, radius: float = 1.0, chart: int = CHART_A):
    """q^a for a = 1, 2, 3 by quadrature of the Cartesian field, an
    independent route to the charge: F^a on either chart, evaluated at the
    nodes of the radius sphere and pulled back through the Jacobian rows,
    with Gauss-Legendre nodes in cos(theta) and cos(beta) and midpoint nodes
    in alpha and gamma.  (2, 1, 1, 1) nodes integrate it exactly: the
    summed density is (1/2) sin^3(theta) sin(beta), whose quotient by the
    1/sin weights is (1 - cos^2 theta) / 2."""
    n1, n2, n3, n4 = nodes
    t, wt = np.polynomial.legendre.leggauss(n1)
    s, ws = np.polynomial.legendre.leggauss(n2)
    theta, beta = np.arccos(t), np.arccos(s)
    alpha = (np.arange(n3) + 0.5) * (2 * pi / n3)
    gamma = (np.arange(n4) + 0.5) * (4 * pi / n4)
    TH, BE, AL, GA = np.meshgrid(theta, beta, alpha, gamma, indexing="ij")
    W = np.broadcast_to((wt / np.sin(theta))[:, None, None, None]
                        * (ws / np.sin(beta))[None, :, None, None]
                        * (2 * pi / n3) * (4 * pi / n4), TH.shape).ravel()
    trig = angle_trig(HyperSpherical(radius, *(g.ravel() for g in (TH, AL, BE, GA))))
    xs = sphere_point(radius, *trig)
    rr = np.full(W.shape, float(radius))
    axis = rr + (1.0 if chart == CHART_A else -1.0) * xs[0]
    J = np.empty((W.shape[0], 4, 5))
    for m, row in enumerate(sphere_frame(radius, *trig)):
        for n, v in enumerate(row):
            J[:, m, n] = v / 2
    comps = []
    for a in (1, 2, 3):
        F = field_tensor(a, chart)
        Fc = np.zeros((W.shape[0], 5, 5))
        for i in range(5):
            for j in range(i + 1, 5):
                v = _compile(F[i][j])(xs, rr, axis)
                Fc[:, i, j] = v
                Fc[:, j, i] = -v
        Fb = np.matmul(J, np.matmul(Fc, J.swapaxes(1, 2)))
        dens = 4.0 * (Fb[:, 0, 1] * Fb[:, 2, 3] - Fb[:, 0, 2] * Fb[:, 1, 3]
                      + Fb[:, 0, 3] * Fb[:, 1, 2])
        comps.append(float(np.sum(W * dens)) / (32 * pi ** 2))
    return tuple(comps)
