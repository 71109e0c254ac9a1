"""Gauge sector: tau matrices, monopole potentials, field tensor, and the
component-table audit."""

from __future__ import annotations

import pytest

from hkit import gauge
from hkit.exact import CHART_A, CHART_B, R, ScalarExpr, X
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
        assert dot.is_zero()


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
    assert su2_trig_generators_check("cot", 50, 1e-5, SEED) < 1e-7


def test_trig_printed_coefficient_fails_bracket():
    """The as-printed cos coefficient on the first generator breaks the
    algebra by an O(1) residual; only the cot variant closes it."""
    assert su2_trig_generators_check("printed", 20, 1e-5, SEED) > 1e-1
    with pytest.raises(ValueError):
        su2_trig_generators_check("secant", 5, 1e-5, SEED)


def test_chart_transition():
    assert gauge_transform_check(100, SEED) < 1e-10


# ----- field tensor ----------------------------------------------------------

def test_field_closed_form():
    assert field_closed_form_check()


def test_ff_intermediate():
    assert ff_intermediate_check()


def test_ff_contraction():
    assert ff_contraction_check()


@pytest.fixture
def perturbed_definition(monkeypatch):
    """The definition route's F^2_13 off by x3 / r^5, and F^2_31 with it."""
    field_tensor_ = gauge.field_tensor
    extra = X[3] * R.rpow(-5)

    def perturbed(a, chart=CHART_A, method="definition"):
        F = field_tensor_(a, chart, method)
        if a != 2 or method != "definition":
            return F
        rows = [list(row) for row in F]
        rows[1][3] = F[1][3] + extra
        rows[3][1] = F[3][1] - extra
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(gauge, "field_tensor", perturbed)


def test_perturbed_field_fails_every_field_check(perturbed_definition):
    assert not ff_intermediate_check()
    assert not ff_contraction_check()
    assert not field_closed_form_check()
    assert field_table_discrepancies() == KNOWN_TABLE_DISCREPANCIES | {(2, 1, 3)}


def test_self_duality():
    assert self_duality_check(50, SEED) < 1e-10


def test_angular_listing():
    assert angular_field_check(50, SEED) < 1e-10


def test_field_antisymmetry():
    for a in (1, 2, 3):
        f = field_tensor(a)
        for i in range(5):
            assert f[i][i].is_zero()
            for j in range(i + 1, 5):
                assert (f[i][j] + f[j][i]).is_zero()


# ----- table audit -----------------------------------------------------------

def test_table_discrepancies_frozen():
    assert field_table_discrepancies() == KNOWN_TABLE_DISCREPANCIES
    assert KNOWN_TABLE_DISCREPANCIES == {(1, 3, 4), (2, 0, 1), (2, 0, 2)}


def test_derived_values_of_disputed_entries():
    """The definition-built tensor fixes the three disputed components."""
    f1 = field_tensor(1)
    want_134 = (X[1] * X[3] - X[2] * X[4]) * R.rpow(-3) * ScalarExpr.axis_pow(-1)
    assert f1[3][4].equals(want_134)
    f2 = field_tensor(2)
    assert f2[0][1].equals(X[3] * R.rpow(-3))
    assert f2[0][2].equals(ScalarExpr.const(-1) * X[4] * R.rpow(-3))


def test_agreeing_entries_match_both_sources():
    """Outside the three flagged entries, tensor and table coincide, so the
    discrepancy set fully itemizes the disagreement."""
    found = field_table_discrepancies()
    assert len(found) == 3
