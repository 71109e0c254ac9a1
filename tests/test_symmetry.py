"""Hidden-symmetry operators: the ten bracket relations and the cleared
Casimir identities, at unit and at generic rational parameters."""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations

import pytest

from hkit.operators import OperatorExpr
from hkit.params import UnitParams
from hkit.symmetry import (
    RELATION_NAMES,
    _c3_pairings,
    _perm_sign,
    _so51_generator,
    build_operators,
    casimir_c3_residual,
    casimir_check,
    verify_relation,
)

SCALED = UnitParams(hbar=Fraction(2), mu0=Fraction(3), e2=Fraction(5))


@pytest.fixture(scope="module")
def unit_ops():
    return build_operators()


@pytest.fixture(scope="module")
def scaled_ops():
    return build_operators(SCALED)


def test_relation_names_are_complete():
    assert len(RELATION_NAMES) == 10
    assert len(set(RELATION_NAMES)) == 10


@pytest.mark.parametrize("name", RELATION_NAMES)
def test_relation_exact(unit_ops, name):
    r = verify_relation(unit_ops, name)
    assert r.passed, r.detail


def test_relations_runtime(unit_ops):
    start = time.perf_counter()
    for name in RELATION_NAMES:
        assert verify_relation(unit_ops, name).passed
    assert time.perf_counter() - start < 60.0


@pytest.mark.parametrize("name", ["pi-x", "pi-pi", "H-M", "M-M", "SO51-cleared"])
def test_relation_exact_scaled_units(scaled_ops, name):
    """The brackets hold identically in hbar, mu0, e2, not only at 1."""
    r = verify_relation(scaled_ops, name)
    assert r.passed, r.detail


def test_unknown_relation_rejected(unit_ops):
    with pytest.raises(KeyError):
        verify_relation(unit_ops, "no-such-relation")


def test_casimir_quadratic_exact(unit_ops):
    r = casimir_check(unit_ops, "C2")
    assert r.passed and r.mode == "exact" and r.residual == 0.0


def test_casimir_cubic_exact(unit_ops):
    r = casimir_check(unit_ops, "C3")
    assert r.passed and r.mode == "exact" and r.residual == 0.0


@pytest.mark.parametrize("mu,nu", [(0, 1), (2, 5)])
def test_c3_pairings_equal_quarter_of_all_orderings(unit_ops, mu, nu):
    """Antisymmetry of D~ folds the 24 orderings of the other four indices
    into 6 pairings, each counted 4 times."""
    rest = [k for k in range(6) if k not in (mu, nu)]
    full = OperatorExpr.zero()
    for rho, sg, ta, la in permutations(rest):
        full = full + (_so51_generator(unit_ops, rho, sg)
                       @ _so51_generator(unit_ops, ta, la)) \
            * _perm_sign((mu, nu, rho, sg, ta, la))
    assert not full.is_zero()
    assert (_c3_pairings(unit_ops, mu, nu) * 4 - full).is_zero()


def test_c3_residual_detects_a_wrong_constant(unit_ops):
    """The C3 check is not vacuous: shifting the constant 96 mu0 e2 / hbar
    by one unit of T^2 leaves a nonzero residual."""
    p = unit_ops.params
    resid = casimir_c3_residual(unit_ops)
    assert resid.is_zero()
    assert not (resid + unit_ops.T2 * (p.mu0 * p.e2 / p.hbar)).is_zero()


def test_casimir_quartic(unit_ops):
    """C4 either finishes exactly or falls back to applied evaluation; both
    must pass at 1e-8."""
    r = casimir_check(unit_ops, "C4")
    assert r.passed
    assert r.mode in ("exact", "applied")
    assert r.residual < 1e-8


def test_casimir_quartic_budget_fallback(unit_ops):
    """A tight budget forces the applied path; the residual stays small."""
    r = casimir_check(unit_ops, "C4", term_budget=5000)
    assert r.mode == "applied"
    assert r.passed and r.residual < 1e-8


def test_casimir_scaled_units(scaled_ops):
    assert casimir_check(scaled_ops, "C2").passed
    assert casimir_check(scaled_ops, "C3").passed


def test_unknown_casimir_rejected(unit_ops):
    with pytest.raises(KeyError):
        casimir_check(unit_ops, "C5")
