"""Bilinear maps, their matrices, and hyperspherical charts."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkit.errors import BadDimension, UndefinedAngle, ZeroRadius
from hkit.transforms import (
    HyperSpherical,
    euler_defect,
    h_matrix,
    h_matrix_orthogonality_check,
    hurwitz_map,
    hyperspherical,
    hyperspherical_inverse,
    inverse_jacobian,
    kustaanheimo_stiefel_map,
    levi_civita_map,
    matrix_vs_map_audit,
    space_angles,
)

rational = st.fractions(min_value=-6, max_value=6, max_denominator=8)


# ----- the three maps --------------------------------------------------------

def test_map_spot_values():
    assert levi_civita_map([1, 0]) == (1, 0)
    assert levi_civita_map([3, 4]) == (-7, 24)
    assert kustaanheimo_stiefel_map([1, 0, 0, 0]) == (0, 0, 1)
    assert hurwitz_map([1, 0, 0, 0, 0, 0, 0, 0]) == (1, 0, 0, 0, 0)
    assert hurwitz_map([1, 0, 0, 0, 1, 0, 0, 0]) == (0, 2, 0, 0, 0)


def test_norm_spot_value():
    """(3,4) maps to a point of radius 25 = (3^2+4^2)."""
    x = levi_civita_map([3, 4])
    assert sum(c * c for c in x) == 25 ** 2


@given(u=st.lists(rational, min_size=2, max_size=2))
def test_euler_identity_d2(u):
    assert euler_defect(u) == 0


@given(u=st.lists(rational, min_size=4, max_size=4))
def test_euler_identity_d4(u):
    assert euler_defect(u) == 0


@settings(max_examples=200)
@given(u=st.lists(rational, min_size=8, max_size=8))
def test_euler_identity_d8(u):
    assert euler_defect(u) == 0


def test_ks_fourth_row_dropped():
    """The 4x4 matrix has an identically-zero row, so the image is a 3-vector."""
    for u in ([1, 0, 0, 0], [Fraction(1, 2), Fraction(-2, 3), 3, Fraction(4, 5)]):
        assert len(kustaanheimo_stiefel_map(u)) == 3


# ----- matrices ---------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 4, 8])
def test_h_matrix_orthogonality(dim):
    assert h_matrix_orthogonality_check(dim)


def test_h_matrix_display_vs_map():
    """The printed display matrix and the component formulas agree only in
    row 0; rows 5..7 of H u vanish identically.  The audit result is the
    contract, frozen here on a concrete rational point."""
    u = [Fraction(n, d) for n, d in
         ((1, 2), (-2, 3), (3, 1), (1, 5), (-1, 2), (2, 7), (0, 1), (5, 3))]
    h = h_matrix(u)
    image = tuple(sum(row[j] * u[j] for j in range(8)) for row in h)
    x = hurwitz_map(u)
    matches = [image[i] == x[i] for i in range(5)]
    assert matches == matrix_vs_map_audit()["head_matches"]
    assert all(c == 0 for c in image[5:])
    # both columns still satisfy the norm identity
    uu = sum(c * c for c in u)
    assert sum(c * c for c in image) == uu ** 2
    assert sum(c * c for c in x) == uu ** 2


def test_h_matrix_bad_dimension():
    with pytest.raises(BadDimension):
        h_matrix([1, 2, 3], 3)


def test_display_audit_is_frozen():
    """The printed 8x8 display disagrees with the component formulas in
    rows 1..4; the component formulas win and the tail rows vanish."""
    audit = matrix_vs_map_audit()
    assert audit["head_matches"] == [True, False, False, False, False]
    assert audit["tail_vanishes"] is True
    assert audit["all_match"] is False


# ----- hyperspherical chart ----------------------------------------------------

def test_hyperspherical_spot_value():
    """x = (0,0,1,0,1) sits at theta = pi/2 on the diagonal of both
    transverse planes."""
    h = hyperspherical([0.0, 0.0, 1.0, 0.0, 1.0])
    assert h.r == pytest.approx(math.sqrt(2), rel=1e-15)
    assert h.theta == pytest.approx(math.pi / 2, abs=1e-14)
    assert h.beta == pytest.approx(math.pi / 2, abs=1e-14)
    assert h.alpha == pytest.approx(0.0, abs=1e-14)
    assert min(h.gamma % (2 * math.pi), 2 * math.pi - h.gamma % (2 * math.pi)) < 1e-12
    back = hyperspherical_inverse(h)
    assert np.allclose(back, [0, 0, 1, 0, 1], atol=1e-14)


def test_hyperspherical_defining_equations():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        x = rng.uniform(-2, 2, 5)
        if math.hypot(x[1], x[2]) < 0.2 or math.hypot(x[3], x[4]) < 0.2:
            continue
        checked += 1
        h = hyperspherical(x)
        assert x[0] == pytest.approx(h.r * math.cos(h.theta), abs=1e-12)
        lo = h.r * math.sin(h.theta) * math.sin(h.beta / 2) * cmath.exp(
            1j * (h.alpha - h.gamma) / 2)
        hi = h.r * math.sin(h.theta) * math.cos(h.beta / 2) * cmath.exp(
            1j * (h.alpha + h.gamma) / 2)
        assert lo == pytest.approx(complex(x[2], x[1]), abs=1e-12)
        assert hi == pytest.approx(complex(x[4], x[3]), abs=1e-12)


def test_hyperspherical_round_trip_property():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        x = rng.uniform(-3, 3, 5)
        if math.hypot(x[1], x[2]) < 0.2 or math.hypot(x[3], x[4]) < 0.2:
            continue
        checked += 1
        back = hyperspherical_inverse(hyperspherical(x))
        assert max(abs(a - b) for a, b in zip(back, x)) < 1e-12


def test_inverse_map_and_jacobian_on_arrays_match_pointwise():
    """Evaluated on arrays of angles, as the charge quadrature does on its
    nodes, the inverse map and its Jacobian hold at each entry the bits
    they give at that point alone."""
    rng = np.random.default_rng(5)
    n = 200
    h = HyperSpherical(1.7, rng.uniform(0, math.pi, n),
                       rng.uniform(0, 2 * math.pi, n),
                       rng.uniform(0, math.pi, n),
                       rng.uniform(0, 4 * math.pi, n))
    points = [HyperSpherical(h.r, float(h.theta[k]), float(h.alpha[k]),
                             float(h.beta[k]), float(h.gamma[k]))
              for k in range(n)]
    xs = np.stack(hyperspherical_inverse(h), axis=1)
    want = np.array([hyperspherical_inverse(p) for p in points])
    assert xs.tobytes() == want.tobytes()
    jac = np.stack([np.stack(np.broadcast_arrays(*row), axis=1)
                    for row in inverse_jacobian(h)], axis=1)
    want = np.array([inverse_jacobian(p) for p in points])
    assert jac.shape == (n, 5, 5)
    assert jac.tobytes() == want.tobytes()


def test_hyperspherical_error_cases():
    with pytest.raises(ZeroRadius):
        hyperspherical([0, 0, 0, 0, 0])
    with pytest.raises(UndefinedAngle):
        hyperspherical([1.0, 0, 0, 0, 0])
    with pytest.raises(UndefinedAngle):
        space_angles([2.0, 0.0, 0.0, 1.0, 1.0])
