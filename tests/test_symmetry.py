"""Hidden-symmetry operators: the ten bracket relations and the cleared
Casimir identities, at unit and at generic rational parameters."""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations

import pytest

from hkit.errors import TermBudgetExceeded
from hkit.exact import CHART_A, CHART_B
from hkit.operators import Budget, OperatorExpr, apply
from hkit.params import UnitParams
from hkit.symmetry import (
    RELATION_NAMES,
    _c3_pairings,
    _c4_exact_residual,
    _c4_lhs_applied,
    _c4_rhs_applied,
    _JetApplier,
    _perm_sign,
    _so51_generator,
    build_operators,
    c4_applied_residual,
    c4_test_function,
    c4_test_points,
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


CHAINS = {
    "L01-pi2": lambda ops: (ops.L(0, 1), ops.pi[2]),
    "L13L32-minus2H": lambda ops: (ops.L(1, 3) @ ops.L(3, 2), ops.minus_2H),
    "M2-M3M0": lambda ops: (ops.M[2], ops.mm_pair(3, 0)),
}


@pytest.mark.parametrize("chart,name", [(CHART_A, n) for n in CHAINS]
                         + [(CHART_B, "L13L32-minus2H")])
def test_jet_chain_matches_symbolic_application(unit_ops, chart, name):
    """The batched jet chain evaluates outer(inner(f)) at a point exactly
    as the symbolic engine does, up to rounding, on either chart."""
    ops = unit_ops if chart == CHART_A else build_operators(chart=chart)
    outer, inner = CHAINS[name](ops)
    f = c4_test_function()
    p = c4_test_points()[0]
    want = apply(outer, apply(inner, f)).evaluate(p)
    got = _JetApplier(p).chain(outer, inner, f)
    assert got == pytest.approx(want, rel=1e-9)


def _applied_c4_worst(ops, rhs):
    f = c4_test_function()
    points = c4_test_points()
    lhs = _c4_lhs_applied(ops, f, points)
    worst = 0.0
    for p, (lu, ld) in zip(points, lhs):
        ru, rd = rhs.evaluate(p)
        worst = max(worst, abs(lu - ru), abs(ld - rd))
    return worst


def test_applied_c4_detects_a_wrong_constant(unit_ops):
    """The applied C4 check is not vacuous: turning the -12 T^2 (-2H)^2
    term of the right side into -11 moves it far outside the tolerance."""
    f = c4_test_function()
    f2 = apply(unit_ops.minus_2H, apply(unit_ops.minus_2H, f))
    rhs = _c4_rhs_applied(unit_ops, f)
    assert _applied_c4_worst(unit_ops, rhs) < 1e-10
    assert _applied_c4_worst(unit_ops, rhs + apply(unit_ops.T2, f2)) > 1e-6


def test_applied_c4_at_nonunit_units():
    ops = build_operators(UnitParams(hbar=Fraction(1), mu0=Fraction(3, 2),
                                     e2=Fraction(1, 3)))
    assert c4_applied_residual(ops) < 1e-10


def test_c4_exact_attempt_stops_at_its_floor():
    """The block-product floor is charged pair by pair as the blocks are
    built, so the default budget gives up well before all 25 exist."""
    ops = build_operators()
    with pytest.raises(TermBudgetExceeded):
        with Budget(2_000_000) as budget:
            _c4_exact_residual(ops)
    assert budget.used < 2_500_000


def test_casimir_scaled_units(scaled_ops):
    assert casimir_check(scaled_ops, "C2").passed
    assert casimir_check(scaled_ops, "C3").passed


def test_unknown_casimir_rejected(unit_ops):
    with pytest.raises(KeyError):
        casimir_check(unit_ops, "C5")
