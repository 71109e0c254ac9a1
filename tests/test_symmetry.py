"""Hidden-symmetry operators: the ten bracket relations and the cleared
Casimir identities, at unit and at generic rational parameters."""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from hkit import symmetry
from hkit.exact import CHART_A, CHART_B, ScalarExpr, X
from hkit.jets import PointJet
from hkit.operators import OperatorExpr
from hkit.params import UnitParams
from hkit.symmetry import (
    RELATION_NAMES,
    _c3_pairing_parts,
    _c4_chains,
    _c4_plans,
    _c4_values,
    _chain_sum,
    _ChainPlans,
    _cleared_c2,
    _JetApplier,
    _perm_sign,
    _RowSums,
    _so51_generator,
    build_operators,
    c4_applied_residual,
    c4_test_jets,
    c4_test_points,
    casimir_c2_residual,
    casimir_c3_residual,
    casimir_check,
    verify_relation,
)

from reference import apply, evaluate, jet

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
    pairings = OperatorExpr.combine(_c3_pairing_parts(unit_ops, mu, nu))
    assert (pairings * 4 - full).is_zero()


def test_c3_residual_detects_a_wrong_constant(unit_ops):
    """The C3 check is not vacuous: shifting the constant 96 mu0 e2 / hbar
    by one unit of T^2 leaves a nonzero residual."""
    p = unit_ops.params
    resid = casimir_c3_residual(unit_ops)
    assert resid.is_zero()
    assert not (resid + unit_ops.T2 * (p.mu0 * p.e2 / p.hbar)).is_zero()


def test_fused_residuals_see_a_perturbed_mt():
    """Each relation and Casimir residual is one fused sum of products; a
    stray x_3 / 7 in Mt_3 still shows in every check that involves Mt."""
    ops = build_operators()
    ops.M[3] = ops.M[3] + ops.x_op(3) * Fraction(1, 7)
    ops._mm_residuals = None
    for name in ("H-M", "L-M", "M-M"):
        assert not verify_relation(ops, name).passed, name
    assert not casimir_c2_residual(ops).is_zero()


def _perturbed_mt(params=None):
    """The operator family with a stray x_3 / 7 added to Mt_3."""
    ops = build_operators(params)
    ops.M[3] = ops.M[3] + ops.x_op(3) * Fraction(1, 7)
    ops._mm_residuals = None
    return ops


def test_failed_relation_names_its_first_bracket():
    """Every bracket of a relation is evaluated and counted, and a failed
    row names the first one that does not hold: with Mt_3 perturbed,
    [L_03, Mt_0] = i Mt_3 is the first L-M bracket to see it."""
    ops = _perturbed_mt()
    want = {"H-M": (5, "(k) = (3)"), "L-M": (50, "(i, j, k) = (0, 3, 0)"),
            "M-M": (10, "(i, j) = (0, 3)"),
            "SO51-cleared": (10, "(i, j) = (0, 3)")}
    for name, (checked, at) in want.items():
        r = verify_relation(ops, name)
        assert not r.passed and r.checked == checked, name
        assert r.detail == f"nonzero exact residual at {at}", name
    r = verify_relation(ops, "L-L")
    assert r.passed and r.checked == 100
    assert r.detail == "exact residual zero"


LARGE = UnitParams(hbar=Fraction(101, 97), mu0=Fraction(89, 83),
                   e2=Fraction(79, 73))


def test_relations_hold_at_large_rational_units():
    """At these units the residual numerators outgrow int64, so the exact
    kernel runs on Python ints, and still decides both ways."""
    ops = build_operators(LARGE)
    for name in ("H-M", "M-M"):
        r = verify_relation(ops, name)
        assert r.passed, r.detail
    assert casimir_check(ops, "C3").passed
    bad = _perturbed_mt(LARGE)
    for name in ("H-M", "M-M"):
        assert not verify_relation(bad, name).passed, name
    assert not casimir_c3_residual(bad).is_zero()


def _generator_steps(ops):
    """{id of the generator D~_ij, i < j, that `_c4_chains` uses: (i, j)}."""
    return {id(_so51_generator(ops, i, j)): (i, j)
            for i in range(6) for j in range(i + 1, 6)}


def _walks_of(steps):
    """The closed walks a chain's factors, given as index pairs, trace: one
    per starting index of the first pair, each with its sign, the product
    of -1 over the steps that run down the matrix."""
    out = []
    for start in steps[0]:
        walk, at, sign = [], start, 1
        for i, j in steps:
            if at not in (i, j):
                break
            walk.append(at)
            nxt = j if at == i else i
            sign *= 1 if at < nxt else -1
            at = nxt
        else:
            if at == start:
                out.append((tuple(walk), sign))
    return out


@pytest.mark.parametrize("params", [UnitParams(), UnitParams(
    mu0=Fraction(3, 2), e2=Fraction(1, 3))], ids=["unit", "mu0-3/2"])
def test_c4_chains_are_the_closed_walks_then_the_right_side(params):
    """The left side of `_c4_chains` is (1/2) tr D~^4: 630 chains, one per
    closed 4-walk of the 6x6 generator matrix with no repeated consecutive
    index, each weighted by its sign and (1/(4 mu0))^(n5/2) for its n5 Mt
    steps, and cleared by (-2H)^(2 - n5/2).  The five right-side chains
    follow, unchanged."""
    ops, q = build_operators(params), float(Fraction(1, 4) / params.mu0)
    chains = _c4_chains(ops)
    assert len(chains) == 635
    step = _generator_steps(ops)
    kinds, traced = {}, set()
    for coef, factors, k in chains[:630]:
        steps = [step[id(op)] for op in factors]
        n5 = sum(5 in st for st in steps)
        kinds[n5, k] = kinds.get((n5, k), 0) + 1
        walks = _walks_of(steps)
        assert walks, steps
        for walk, sign in walks:
            assert all(a != b for a, b in zip(walk, walk[1:] + walk[:1]))
            assert coef == pytest.approx(sign * 0.5 * q ** (n5 // 2),
                                         rel=1e-15)
            traced.add(walk)
    assert kinds == {(0, 2): 260, (2, 1): 320, (4, 0): 50}
    assert traced == {w for w in product(range(6), repeat=4)
                      if all(a != b for a, b in zip(w, w[1:] + w[:1]))}
    K, T2 = chains[-5][1][0], ops.T2
    assert (K - _cleared_c2(ops)).is_zero()
    assert chains[-5:] == [(-1.0, (K, K), 0), (-6.0, (K,), 1),
                           (4.0, (K, T2), 1), (12.0, (T2,), 2),
                           (-6.0, (T2, T2), 2)]


@pytest.fixture(scope="module")
def unit_c4(unit_ops):
    """The C4 residual of the unit operators, computed once."""
    return c4_applied_residual(unit_ops)


def test_casimir_quartic(unit_ops, unit_c4):
    """C4 is checked numerically and passes at 1e-8: the row reports
    exactly what c4_applied_residual finds."""
    r = casimir_check(unit_ops, "C4")
    assert r.mode == "numeric"
    assert r.detail == "quartic contraction on seeded functions (applied)"
    assert r.passed and r.residual == unit_c4 < 1e-8


def test_casimir_quartic_budget_fallback(unit_ops, unit_c4, monkeypatch):
    """The applied path, once the fallback from an exact attempt, is the
    only C4 path, and tol decides its verdict.  c4_applied_residual is
    stubbed with the shared unit_c4, so C4 is not evaluated again."""
    monkeypatch.setattr(symmetry, "c4_applied_residual", lambda ops: unit_c4)
    r = casimir_check(unit_ops, "C4")
    assert r.mode == "numeric" and r.passed and r.residual == unit_c4
    assert not casimir_check(unit_ops, "C4", tol=unit_c4 / 2).passed


CHAINS = {
    "L01-pi2": lambda ops: (ops.L(0, 1), ops.pi[2]),
    "L13L32-minus2H": lambda ops: (ops.L(1, 3) @ ops.L(3, 2), ops.minus_2H),
    "M2-M3M0": lambda ops: (ops.M[2], ops.M[3], ops.M[0]),
}


def test_row_sums_match_a_dense_product():
    """Row sums with empty rows, repeated (row, col) entries and explicit
    zeros give the dense M @ x; no entries at all give zeros of the right
    shape."""
    rng = np.random.default_rng(20240814)
    rows = np.array([0, 0, 2, 2, 2, 5, 5, 0, 2])
    cols = np.array([3, 1, 0, 3, 0, 2, 2, 3, 4])
    vals = rng.normal(size=9) + 1j * rng.normal(size=9)
    vals[[2, 8]] = 0
    dense = np.zeros((7, 5), dtype=complex)
    np.add.at(dense, (rows, cols), vals)
    x = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    m = _RowSums.from_entries(rows, cols, vals, (7, 5))
    assert list(m.rows) == [0, 2, 5] and len(m.vals) == 6
    assert np.allclose(m @ x, dense @ x, rtol=1e-14, atol=1e-14)
    empty = _RowSums.from_entries([], [], [], (3, 5))
    got = empty @ x
    assert got.shape == (3, 4) and not got.any()


def _sample_f():
    return (X[1] * X[3] * X[4] + X[0] * X[0] * Fraction(1, 2)
            - X[2] * Fraction(2, 3),
            X[2] * X[4] - X[0] * X[1] * X[1] + ScalarExpr.const(Fraction(1, 3)))


def _jet(p, f, order):
    pj = PointJet(p, order)
    return np.array([jet(pj, c) for c in f])


@pytest.mark.parametrize("chart,name", [(CHART_A, n) for n in CHAINS]
                         + [(CHART_B, "L13L32-minus2H")])
def test_jet_chain_matches_symbolic_application(unit_ops, chart, name):
    """The batched jet chain evaluates op_1(...op_n(f)) at a point exactly
    as the symbolic engine does, up to rounding, on either chart.  Images
    are memoized per input jet: the same factors on 2 f give twice the
    value."""
    ops = unit_ops if chart == CHART_A else build_operators(chart=chart)
    factors = CHAINS[name](ops)
    f = _sample_f()
    p = c4_test_points()[0]
    want = f
    for op in reversed(factors):
        want = apply(op, want)
    plans = _ChainPlans()
    order = sum(plans.get(op).order for op in factors[:-1])
    plans.get(factors[-1])
    ja, fjet = _JetApplier(p, plans, order), _jet(p, f, 8)
    got = tuple(ja.chain(factors, fjet)[:, 0])
    assert got == pytest.approx(tuple(evaluate(c, p) for c in want), rel=1e-9)
    assert tuple(ja.chain(factors, 2 * fjet)[:, 0]) == pytest.approx(
        tuple(2 * v for v in got), rel=1e-12)


def test_jet_image_above_the_plans_order(unit_ops):
    """The term jets are computed once, at the applier's order, above the
    order of the plan: images at that order and below are served from
    prefixes of them, and an image asked for above it raises instead of
    reading term jets that are too short."""
    f, p = _sample_f(), c4_test_points()[1]
    want = apply(unit_ops.M[0], f)
    plans = _ChainPlans()
    assert plans.get(unit_ops.M[0]).order == 2
    ja = _JetApplier(p, plans, 6)
    fjet = _jet(p, f, 8)
    for order in (2, 6, 3):
        got = ja.image(unit_ops.M[0], fjet, order)
        assert got.shape == (2, PointJet(p, order).space.dim)
        assert got == pytest.approx(_jet(p, want, order), rel=1e-9,
                                    abs=1e-12)
    with pytest.raises(ValueError, match="order 6, not 7"):
        ja.image(unit_ops.M[0], fjet, 7)


def test_plan_columns_are_the_distinct_terms():
    """Plans of both charts share one set of term columns: each distinct
    term x^m r^k (r + s x0)^a owns one column, and its chart is kept only
    where it has an axis factor, so a term without one is shared across
    charts."""
    plans = _ChainPlans()
    h = {chart: build_operators(chart=chart).minus_2H
         for chart in (CHART_A, CHART_B)}
    cols = {chart: set(plans.get(op).coef.cols.tolist())
            for chart, op in h.items()}
    terms = plans.terms
    assert len(set(terms)) == len(terms)
    assert all(s == 0 for _, _, ap, s in terms if not ap)
    assert {s for _, _, ap, s in terms if ap} == {CHART_A, CHART_B}
    shared = cols[CHART_A] & cols[CHART_B]
    assert shared and all(not terms[j][2] for j in shared)


@pytest.mark.parametrize("point", [0, 1])
def test_grouped_chain_sum_is_the_chain_by_chain_sum(unit_ops, point):
    """`_chain_sum` applies each outer factor once, to the summed inner
    jets of the chains that share it.  Images are linear, so on the 630
    walks, whose sum does not cancel, it gives the chain-by-chain sum up
    to rounding."""
    chains = _c4_chains(unit_ops)[:630]
    plans = _c4_plans(unit_ops, chains)
    p, f = c4_test_points()[point], c4_test_jets(2)[point]
    ja = _JetApplier(p, plans, 6)
    f1 = ja.image(unit_ops.minus_2H, f, 6)
    fk = (f, f1, ja.image(unit_ops.minus_2H, f1, 4))
    want = sum(c * ja.chain(fs, fk[k])[:, 0] for c, fs, k in chains)
    got = _chain_sum(ja, chains, fk, 0)[:, 0]
    assert np.abs(want).min() > 1.0
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def _c4_worst(ops, chains):
    points = c4_test_points()
    vals = _c4_values(ops, chains, points, c4_test_jets(len(points)))
    return float(np.abs(vals).max())


def test_applied_c4_detects_a_wrong_constant(unit_ops, unit_c4):
    """The C4 check is not vacuous: turning the -12 T^2 (-2H)^2 term of
    the right side into -11 moves it far outside the tolerance.  unit_c4
    is the sum of the unchanged chain list at the same points and jets."""
    chains = _c4_chains(unit_ops)
    (at,) = [n for n, c in enumerate(chains) if c[0] == 12]
    (factor,) = chains[at][1]
    assert factor is unit_ops.T2 and chains[at][2] == 2
    chains[at] = (11.0, *chains[at][1:])
    assert unit_c4 < 1e-10
    assert _c4_worst(unit_ops, chains) > 1e-6


def test_applied_c4_shared_images_see_a_wrong_factor(unit_ops, unit_c4):
    """Chains that end in the same factors share their images, and that
    hides no factor: putting Mt_3 + x_3 / 7 in place of every Mt_3 factor
    of the chain list, and nowhere else, moves the residual far outside
    the tolerance."""
    bad = unit_ops.M[3] + unit_ops.x_op(3) * Fraction(1, 7)
    chains = [(c, tuple(bad if op is unit_ops.M[3] else op for op in fs), k)
              for c, fs, k in _c4_chains(unit_ops)]
    assert sum(op is bad for _, fs, _ in chains for op in fs) > 25
    assert unit_c4 < 1e-10
    assert _c4_worst(unit_ops, chains) > 1e-6


@pytest.mark.parametrize("mutate", [
    lambda ops, chains: [
        (c * 0.25 ** (sum(op in ops.M for op in fs) // 2), fs, k)
        for c, fs, k in chains[:630]] + chains[630:],
    lambda ops, chains: chains[1:],
    lambda ops, chains: chains[:629] + chains[630:],
], ids=["q^n5", "drop-first-walk", "drop-last-walk"])
def test_applied_c4_sees_a_wrong_walk(unit_ops, unit_c4, mutate):
    """Weighting each walk by (1/(4 mu0))^n5 instead of (1/(4 mu0))^(n5/2),
    or dropping one walk (four L steps first, four Mt steps last), moves
    the residual far outside the tolerance."""
    chains = _c4_chains(unit_ops)
    assert unit_c4 < 1e-10
    assert _c4_worst(unit_ops, mutate(unit_ops, chains)) > 1e-6


def _d(*axes):
    op = OperatorExpr.identity()
    for i in axes:
        op = op @ OperatorExpr.deriv(i)
    return op


@pytest.mark.parametrize("extra", [
    lambda ops: (1000.0, (ops.T2 @ OperatorExpr.from_scalar(
        ScalarExpr.term(1, (2, 0, 0, 0, 0), rp=-1)) @ _d(0, 1, 2),), 0),
    lambda ops: (1e-3, (_d(0, 0, 1, 1), _d(2, 2, 3, 3)), 0),
], ids=["order-3", "order-8"])
def test_applied_c4_sees_every_derivative_order(unit_ops, extra):
    """f is seeded to full order 8, so a stray term of order 3, which a
    quadratic f would annihilate, or of order 8, the order of the left
    side, shows in the residual."""
    assert _c4_worst(unit_ops, _c4_chains(unit_ops) + [extra(unit_ops)]) > 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "the C4 row is summed at two fixed points, x0 = 1/4 and x0 = -3/5, so "
    "a wrong term whose coefficient vanishes at both is not seen; random "
    "points (ROADMAP item 2) would see it"))
def test_applied_c4_sees_a_term_that_vanishes_at_the_test_points(unit_ops):
    """1000 (x0 - 1/4)(x0 + 3/5) d0^2 is a wrong term of the residual
    operator, and the row should see it.  Its coefficient is zero at both
    test points, so today the residual does not move."""
    x0 = ScalarExpr.term(1, (1, 0, 0, 0, 0))
    coef = (x0 - ScalarExpr.const(Fraction(1, 4))) \
        * (x0 + ScalarExpr.const(Fraction(3, 5)))
    extra = (1000.0, (OperatorExpr.from_scalar(coef) @ _d(0, 0),), 0)
    assert _c4_worst(unit_ops, _c4_chains(unit_ops) + [extra]) > 1e-6


def test_applied_c4_at_nonunit_units():
    ops = build_operators(UnitParams(hbar=Fraction(1), mu0=Fraction(3, 2),
                                     e2=Fraction(1, 3)))
    assert c4_applied_residual(ops) < 1e-10


def test_casimir_scaled_units(scaled_ops):
    assert casimir_check(scaled_ops, "C2").passed
    assert casimir_check(scaled_ops, "C3").passed


def test_unknown_casimir_rejected(unit_ops):
    with pytest.raises(KeyError):
        casimir_check(unit_ops, "C5")
