"""Shared fixtures: deterministic seeds, exact rational sample points and
the float Jacobians of the hyperspherical inverse map."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hkit.exact import Point5
from hkit.transforms import (HyperSpherical, angle_trig, hurwitz_map,
                             sphere_frame, sphere_point)

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
    what the exact evaluation layer requires.  With avoid_axis the points
    also stay off both half-axes so every chart denominator is nonzero.
    """
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        u = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for _ in range(8)]
        x = hurwitz_map(u)
        p = Point5(x)
        rr = p.radius()
        if rr == 0:
            continue
        if avoid_axis and (rr + x[0] == 0 or rr - x[0] == 0
                           or (x[1] == 0 and x[2] == 0)
                           or (x[3] == 0 and x[4] == 0)):
            continue
        points.append(p)
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
