"""Operator layer: PBW words, composition, Leibniz rule, work budget."""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import pytest

from hkit.errors import TermBudgetExceeded
from hkit.exact import (
    CHART_A,
    CHART_B,
    GR_I,
    GaussRat,
    R,
    ScalarExpr,
    X,
    evaluate,
)
from hkit.gmat import (
    SPIN,
    commutator as mat_commutator,
    madd,
    meq,
    mmul,
    mscale,
    mzero,
)
from hkit.operators import (
    Budget,
    IsoFun,
    OperatorExpr,
    apply,
    commutator,
    word_matrix,
)


def _matrix_of(op, point):
    """Spin-1/2 matrix of a pure isospin operator, via the word oracle."""
    m = mzero(2)
    for (iso, deriv), coeff in op.items():
        assert deriv == (0, 0, 0, 0, 0)
        m = madd(m, mscale(evaluate(coeff, point), word_matrix(iso)))
    return m


def test_pbw_reordering_matches_matrix_oracle(sample_points):
    """Normal ordering rewrites T_b T_a words; the 2x2 representation must
    not notice."""
    p = sample_points[0]
    gens = {a: OperatorExpr.iso(a) for a in (1, 2, 3)}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            assert meq(_matrix_of(gens[a] @ gens[b], p),
                       mmul(SPIN[a], SPIN[b]))
    scrambled = gens[3] @ gens[2] @ gens[1] @ gens[2]
    direct = mmul(mmul(SPIN[3], SPIN[2]), mmul(SPIN[1], SPIN[2]))
    assert meq(_matrix_of(scrambled, p), direct)


def test_su2_commutators():
    """[T_a, T_b] = i eps_abc T_c with the sign the generators actually carry."""
    t = {a: OperatorExpr.iso(a) for a in (1, 2, 3)}
    sign = 1 if meq(mat_commutator(SPIN[1], SPIN[2]),
                    mscale(GR_I, SPIN[3])) else -1
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        resid = commutator(t[a], t[b]) - OperatorExpr.from_const(
            GaussRat(0, sign)) @ t[c]
        assert resid.is_zero()


def test_canonical_commutator():
    """[d_i, x_i] = 1 after normal ordering."""
    for i in range(5):
        d = OperatorExpr.deriv(i)
        x = OperatorExpr.from_scalar(X[i])
        resid = commutator(d, x) - OperatorExpr.identity()
        assert resid.is_zero()
        assert commutator(d, OperatorExpr.from_scalar(X[(i + 1) % 5])).is_zero()


def test_apply_composition(sample_points):
    """apply(A @ B, f) = apply(A, apply(B, f)) pointwise on sample points."""
    a = OperatorExpr.deriv(0) @ OperatorExpr.from_scalar(X[1] * R.rpow(-1))
    b = OperatorExpr.iso(2) @ OperatorExpr.deriv(1) + OperatorExpr.from_scalar(X[0])
    f = IsoFun(X[0] * X[1] * R.rpow(-1), X[2] + X[3] * X[4])
    combined = apply(a @ b, f)
    nested = apply(a, apply(b, f))
    for got, want in zip(combined.c, nested.c):
        assert (got - want).is_zero()


def test_operator_residual_vanishes_on_identity(sample_points):
    d0x0 = commutator(OperatorExpr.deriv(0), OperatorExpr.from_scalar(X[0]))
    resid = d0x0 - OperatorExpr.identity()
    assert resid.max_residual(sample_points) == 0.0


def test_budget_aborts():
    heavy = OperatorExpr.from_scalar(X[0] * X[1] + X[2] * X[3] + R.rpow(-2))
    word = heavy
    with pytest.raises(TermBudgetExceeded):
        with Budget(50):
            for _ in range(6):
                word = word @ heavy


def test_budget_is_thread_local():
    """A tight budget in one thread never charges work done in another."""
    heavy = OperatorExpr.from_scalar(X[0] * X[1] + X[2] * X[3] + R.rpow(-2))
    outcome = {}

    def tight():
        try:
            with Budget(50):
                w = heavy
                for _ in range(6):
                    w = w @ heavy
            outcome["tight"] = "finished"
        except TermBudgetExceeded:
            outcome["tight"] = "aborted"

    def roomy():
        w = heavy
        for _ in range(6):
            w = w @ heavy
        outcome["roomy"] = "finished"

    threads = [threading.Thread(target=tight), threading.Thread(target=roomy)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcome == {"tight": "aborted", "roomy": "finished"}


def test_term_count_grows_with_products():
    e = OperatorExpr.from_scalar(X[0]) @ OperatorExpr.deriv(1)
    assert e.term_count() >= 1
    assert (e @ e).term_count() >= e.term_count()


# ----- composition against independent routes --------------------------------

_WORDS = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 1), (1, 1, 0), (0, 0, 2)]


def _random_rational(rng):
    return Fraction(rng.choice([-5, -3, -2, 2, 3, 7]),
                    rng.choice([1, 2, 3, 4]))


def _random_scalar(rng, chart, terms=2):
    """A few terms with non-unit Gaussian-rational coefficients, negative
    and positive powers of r and of the chart's axis factor."""
    out = ScalarExpr.zero()
    for _ in range(terms):
        coeff = GaussRat(_random_rational(rng),
                         _random_rational(rng) if rng.random() < 0.5 else 0)
        mono = [rng.randint(0, 1) for _ in range(5)]
        out = out + ScalarExpr.term(coeff, mono, rp=rng.randint(-2, 1),
                                    ap=rng.randint(-1, 1), chart=chart)
    return out


def _random_operator(rng, chart, terms=2):
    """Terms c(x) * word * d^alpha with a word from _WORDS and |alpha| <= 2;
    the first term always differentiates, so products use the Leibniz rule."""
    t = {}
    for k in range(terms):
        deriv = [0] * 5
        for _ in range(rng.randint(0 if k else 1, 2)):
            deriv[rng.randrange(5)] += 1
        t[(rng.choice(_WORDS), tuple(deriv))] = _random_scalar(rng, chart)
    return OperatorExpr(t)


@pytest.fixture(params=[CHART_A, CHART_B], ids=["chart-A", "chart-B"])
def random_ops(request, seed):
    rng = random.Random(seed + request.param)
    a, b, c = (_random_operator(rng, request.param) for _ in range(3))
    f = IsoFun(_random_scalar(rng, request.param, 3),
               _random_scalar(rng, request.param, 3))
    return a, b, c, f


def test_matmul_is_associative(random_ops):
    a, b, c, _ = random_ops
    assert ((a @ b) @ c - a @ (b @ c)).is_zero()


def test_matmul_distributes_over_addition(random_ops):
    a, b, c, _ = random_ops
    assert (a @ (b + c) - a @ b - a @ c).is_zero()


def test_matmul_agrees_with_nested_apply(random_ops):
    a, b, _, f = random_ops
    combined = apply(a @ b, f)
    nested = apply(a, apply(b, f))
    for got, want in zip(combined.c, nested.c):
        assert (got - want).is_zero()


def test_matmul_coefficients_are_canonical(random_ops):
    a, b, c, _ = random_ops
    for prod in (a @ b, b @ c, (a @ b) @ c):
        assert len(prod) > 0
        for _, coeff in prod.items():
            assert not coeff.is_structural_zero()
            assert all(rp < 2 for (_, rp, _), _ in coeff.items())
