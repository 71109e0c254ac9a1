"""Gauge sector: tau matrices, monopole potentials, field tensor, and the
component-table audit."""

from __future__ import annotations

from itertools import permutations
from math import pi

import numpy as np
import pytest

from hkit import gauge, transforms
from hkit.exact import CHART_A, CHART_B, GaussRat, R, ScalarExpr, X
from hkit.gauge import (
    KNOWN_TABLE_DISCREPANCIES,
    angular_field_check,
    ff_contraction_check,
    ff_intermediate_check,
    field_closed_form_check,
    field_table_discrepancies,
    field_tensor,
    gauge_transform_check,
    potential_orthogonality_check,
    potential_reproduction_check,
    potential_transversality_check,
    self_duality_check,
    su2_trig_generators_check,
    tau_eps_identity_check,
    tau_product_check,
    vector_potential,
)
from hkit.operators import perm_sign
from hkit.transforms import (HyperSpherical, IntPoly, hyperspherical_inverse,
                             sphere_frame, sphere_point)

from conftest import angular_jacobian, sqrt_det_metric_closed
from reference import equals, is_zero

SEED = 20240814


# ----- tau matrices ----------------------------------------------------------

def test_tau_products():
    assert tau_product_check()


def test_tau_eps_identity():
    assert tau_eps_identity_check()


# ----- potentials ------------------------------------------------------------

@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_potential_listing(chart):
    assert potential_reproduction_check(chart)


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_potential_orthogonality(chart):
    assert potential_orthogonality_check(chart)


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_potential_transversality(chart):
    """A^a . x = 0 exactly, componentwise."""
    assert potential_transversality_check(chart)
    for a in (1, 2, 3):
        pot = vector_potential(a, chart)
        dot = ScalarExpr.zero()
        for j in range(5):
            dot = dot + pot[j] * X[j]
        assert is_zero(dot)


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_perturbed_potential_fails_every_potential_check(monkeypatch, chart):
    """A^1_2 off by x1 / (r (r + s x0)) breaks the listing, A^a . A^b and
    A^a . x, so the batched zero tests can answer False."""
    vector_potential_ = gauge.vector_potential
    extra = ScalarExpr.term(1, (0, 1, 0, 0, 0), rp=-1, ap=-1, chart=chart)

    def perturbed(a, on=CHART_A):
        A = vector_potential_(a, on)
        return A if a != 1 else A[:2] + (A[2] + extra,) + A[3:]

    monkeypatch.setattr(gauge, "vector_potential", perturbed)
    assert not potential_reproduction_check(chart)
    assert not potential_orthogonality_check(chart)
    assert not potential_transversality_check(chart)


def test_trig_generator_brackets():
    assert su2_trig_generators_check("cot") == 0


def test_trig_printed_coefficient_fails_bracket():
    """The as-printed cos coefficient on the first generator leaves five of
    the nine bracket components nonzero; only the cot variant closes it."""
    assert su2_trig_generators_check("printed") == 5
    with pytest.raises(ValueError):
        su2_trig_generators_check("secant")


def test_wrong_circle_rule_breaks_the_trig_bracket(monkeypatch):
    """With s^2 -> c^2 - 1 the normal form is no longer that of the trig
    ring, and the cot bracket stops vanishing."""
    monkeypatch.setattr(transforms, "_sin_squared", lambda c: c * c - 1)
    assert su2_trig_generators_check("cot") > 0


def test_chart_transition():
    assert gauge_transform_check() == 0


def test_transition_with_gamma_sign_flipped_fails(monkeypatch):
    """S = exp(+i gamma T3) exp(-i beta T2) exp(-i alpha T3) trades the half
    angles (alpha - gamma) / 2 and (alpha + gamma) / 2 in every entry."""
    transition = gauge._transition
    monkeypatch.setattr(gauge, "_transition", lambda sb, cb, sm, cm, sp, cp:
                        transition(sb, cb, sp, cp, sm, cm))
    assert gauge_transform_check() == 24


def test_perturbed_second_chart_potential_fails_chart_transition(monkeypatch):
    """B^1_2 off by x1 / (r (r - x0)): every row d x_2 / d y_m is nonzero,
    so each B_m S gains a multiple of sigma_1 S, and no entry of S has a
    vanishing real or imaginary part."""
    vector_potential_ = gauge.vector_potential
    extra = ScalarExpr.term(1, (0, 1, 0, 0, 0), rp=-1, ap=-1, chart=CHART_B)

    def perturbed(a, chart=CHART_A):
        A = vector_potential_(a, chart)
        return A if (a, chart) != (1, CHART_B) else A[:2] + (A[2] + extra,) + A[3:]

    monkeypatch.setattr(gauge, "vector_potential", perturbed)
    assert gauge_transform_check() == 40


# ----- field tensor ----------------------------------------------------------

def test_field_closed_form():
    assert field_closed_form_check()


def test_ff_intermediate():
    assert ff_intermediate_check()


def test_ff_contraction():
    assert ff_contraction_check()


def _perturb_definition(monkeypatch, extra):
    """The definition route's F^2_13 off by extra, and F^2_31 with it."""
    field_tensor_ = gauge.field_tensor

    def perturbed(a, chart=CHART_A, method="definition"):
        F = field_tensor_(a, chart, method)
        if a != 2 or method != "definition":
            return F
        rows = [list(row) for row in F]
        rows[1][3] = F[1][3] + extra
        rows[3][1] = F[3][1] - extra
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(gauge, "field_tensor", perturbed)


@pytest.fixture
def perturbed_definition(monkeypatch):
    """F^2_13 off by x3 / r^5."""
    _perturb_definition(monkeypatch, X[3] * R.rpow(-5))


def test_perturbed_field_fails_every_field_check(perturbed_definition):
    assert not ff_intermediate_check()
    assert not ff_contraction_check()
    assert not field_closed_form_check()
    assert not self_duality_check()
    assert field_table_discrepancies() == KNOWN_TABLE_DISCREPANCIES | {(2, 1, 3)}


def test_self_duality():
    assert self_duality_check(CHART_A)
    assert self_duality_check(CHART_B)


@pytest.mark.parametrize("chart", [CHART_A, CHART_B])
def test_anti_self_duality_fails_every_sum(monkeypatch, chart):
    """With eps negated each sum is -2 r F^a_ij, and no F entry is zero."""
    perm_sign, zero_sums, seen = gauge.perm_sign, gauge._zero_sums, []

    def recorded(sums):
        seen.extend(zero_sums(sums))
        return seen

    monkeypatch.setattr(gauge, "perm_sign", lambda seq: -perm_sign(seq))
    monkeypatch.setattr(gauge, "_zero_sums", recorded)
    assert not self_duality_check(chart)
    assert seen == [False] * 30


def test_imaginary_perturbation_fails_self_duality(monkeypatch):
    """F^2_13 off by i x3 / r^5: only the imaginary numerators see it."""
    _perturb_definition(monkeypatch,
                        ScalarExpr.term(GaussRat(0, 1), (0, 0, 0, 1, 0), rp=-5))
    assert not self_duality_check()


def _random_point(rng) -> HyperSpherical:
    """A point off the chart's singular set, drawn as r, theta, alpha, beta, gamma."""
    return HyperSpherical(
        r=rng.uniform(0.5, 2.0),
        theta=rng.uniform(0.3, pi - 0.3),
        alpha=rng.uniform(0.1, 2 * pi - 0.1),
        beta=rng.uniform(0.3, pi - 0.3),
        gamma=rng.uniform(0.1, 4 * pi - 0.1),
    )


def test_sphere_orientation_is_theta_beta_alpha_gamma():
    """det[d x / d(theta, beta, alpha, gamma); x/r] is the volume factor,
    positive: the orientation eps(t_1, .., t_4, x/r) = +1 of the exact
    self-duality check is the one the row's anchor names."""
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        h = _random_point(rng)
        normal = [v / h.r for v in hyperspherical_inverse(h)]
        det = np.linalg.det(np.array(angular_jacobian(h) + [normal]))
        assert det > 0
        assert det == pytest.approx(sqrt_det_metric_closed(h), rel=1e-12)


def test_sphere_orientation_determinant_is_exact():
    """det[d x / d(theta, beta, alpha, gamma); x/r] = r^4 sin^3(theta)
    sin(beta) / 8 as trig polynomials, sin(beta) = 2 sin(beta/2)
    cos(beta/2); the rows come doubled, so the determinant is 16 times."""
    r, *trig = IntPoly.variables(9)
    st, _, sb, cb, *_ = trig
    r_inv = IntPoly(9, {(-1,) + (0,) * 8: 1})
    rows = sphere_frame(r, *trig) + [[xi * r_inv for xi in sphere_point(r, *trig)]]
    det = sum((perm_sign(p) * rows[0][p[0]] * rows[1][p[1]] * rows[2][p[2]]
               * rows[3][p[3]] * rows[4][p[4]] for p in permutations(range(5))),
              r * 0)
    want = r ** 4 * st ** 3 * sb * cb * 4
    assert not (det - want).on_circles(((2, 1), (4, 3), (6, 5), (8, 7))).terms


def test_angular_listing():
    assert angular_field_check() == 0


def test_printed_cartesian_table_fails_angular_listing(monkeypatch):
    """F from the printed Cartesian table, with its three wrong entries,
    misses 13 of the 30 pulled-back components."""
    field_tensor_ = gauge.field_tensor
    monkeypatch.setattr(gauge, "field_tensor",
                        lambda a, chart=CHART_A: field_tensor_(a, chart, "table"))
    assert angular_field_check() == 13


def test_perturbed_listing_entry_fails_angular_listing(monkeypatch):
    """F^3_(theta gamma) with its sign flipped."""
    k, p, f = gauge._ANGULAR_LISTING[3, "theta", "gamma"]
    monkeypatch.setitem(gauge._ANGULAR_LISTING, (3, "theta", "gamma"), (-k, p, f))
    assert angular_field_check() == 1


def test_field_antisymmetry():
    for a in (1, 2, 3):
        f = field_tensor(a)
        for i in range(5):
            assert is_zero(f[i][i])
            for j in range(i + 1, 5):
                assert is_zero(f[i][j] + f[j][i])


# ----- table audit -----------------------------------------------------------

def test_table_discrepancies_frozen():
    assert field_table_discrepancies() == KNOWN_TABLE_DISCREPANCIES
    assert KNOWN_TABLE_DISCREPANCIES == {(1, 3, 4), (2, 0, 1), (2, 0, 2)}


def test_derived_values_of_disputed_entries():
    """The definition-built tensor fixes the three disputed components."""
    f1 = field_tensor(1)
    want_134 = (X[1] * X[3] - X[2] * X[4]) * R.rpow(-3) * ScalarExpr.axis_pow(-1)
    assert equals(f1[3][4], want_134)
    f2 = field_tensor(2)
    assert equals(f2[0][1], X[3] * R.rpow(-3))
    assert equals(f2[0][2], ScalarExpr.const(-1) * X[4] * R.rpow(-3))


def test_agreeing_entries_match_both_sources():
    """Outside the three flagged entries, tensor and table coincide, so the
    discrepancy set fully itemizes the disagreement."""
    found = field_table_discrepancies()
    assert len(found) == 3
