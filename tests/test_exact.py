"""Exact scalar layer: Gaussian rationals, quotient-ring arithmetic,
differentiation, and evaluation."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iterproduct
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkit.errors import ChartMismatch, ExponentRange, SingularPoint
from hkit.exact import (
    CHART_A,
    CHART_B,
    EXP_LIMIT,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussRat,
    R,
    ScalarExpr,
    X,
    rational_sqrt,
)

from conftest import rational_points
from reference import equals, evaluate, is_zero, multi_diff, radius

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def gauss_rats(draw_re=small_fraction, draw_im=small_fraction):
    return st.builds(GaussRat, draw_re, draw_im)


@st.composite
def scalar_exprs(draw, max_terms=3):
    """Small random ring elements on a single chart."""
    expr = ScalarExpr.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(gauss_rats())
        mono = tuple(draw(st.integers(0, 2)) for _ in range(5))
        rp = draw(st.integers(-2, 2))
        expr = expr + ScalarExpr.term(coeff, mono, rp=rp)
    return expr


# ----- Gaussian rationals ----------------------------------------------------

def test_gauss_rat_basics():
    assert GR_I * GR_I == GaussRat(-1, 0)
    assert GR_ONE + GR_ZERO == GR_ONE
    a = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    b = GaussRat(Fraction(2, 3), Fraction(5))
    assert a * b == GaussRat(Fraction(1, 2) * Fraction(2, 3) + Fraction(15, 4),
                             Fraction(5, 2) - Fraction(1, 2))


@given(a=gauss_rats(), b=gauss_rats(), c=gauss_rats())
def test_gauss_rat_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


# ----- quotient ring ---------------------------------------------------------

def test_radius_relation():
    """r^2 reduces to the coordinate square sum."""
    square = ScalarExpr.zero()
    for xi in X:
        square = square + xi * xi
    assert equals(R * R, square)
    assert is_zero(R * R - square)


@settings(max_examples=60)
@given(a=scalar_exprs(), b=scalar_exprs(), c=scalar_exprs())
def test_ring_axioms(a, b, c):
    assert equals(a + b, b + a)
    assert equals(a * b, b * a)
    assert equals((a + b) + c, a + (b + c))
    assert equals(a * (b + c), a * b + a * c)


@settings(max_examples=60)
@given(e=scalar_exprs())
def test_normal_form_is_stable(e):
    """The internal form is already normal: rebuilding from terms is a no-op."""
    rebuilt = ScalarExpr.zero()
    for (mono, rp, ap), coeff in e.items():
        rebuilt = rebuilt + ScalarExpr.term(coeff, mono, rp=rp, ap=ap,
                                            chart=e.chart)
    assert equals(e, rebuilt)
    assert (e - rebuilt).is_structural_zero()


@settings(max_examples=40)
@given(a=scalar_exprs(), b=scalar_exprs())
def test_product_rule(a, b):
    for axis in range(5):
        lhs = (a * b).diff(axis)
        rhs = a.diff(axis) * b + a * b.diff(axis)
        assert equals(lhs, rhs)


def test_radius_derivative():
    """d r / d x_i = x_i / r, the defining property of the radius symbol."""
    for axis in range(5):
        assert equals(R.diff(axis), X[axis] * R.rpow(-1))


def test_multi_diff_matches_iterated_diff():
    e = X[0] * X[0] * X[1] * R.rpow(-1)
    gamma = (2, 1, 0, 0, 0)
    stepwise = e.diff(0).diff(0).diff(1)
    assert equals(multi_diff(e, gamma), stepwise)


def test_chart_mixing_rejected():
    a = ScalarExpr.axis_pow(-1, CHART_A)
    b = ScalarExpr.axis_pow(-1, CHART_B)
    with pytest.raises(ChartMismatch):
        _ = a * b


def test_axis_pow_semantics():
    """axis_pow(1) multiplies by the chart's axis factor r -+ x0."""
    assert equals(ScalarExpr.axis_pow(1, CHART_A), R + X[0])
    assert equals(ScalarExpr.axis_pow(1, CHART_B), R - X[0])
    one = ScalarExpr.axis_pow(1, CHART_A) * ScalarExpr.axis_pow(-1, CHART_A)
    assert equals(one, ScalarExpr.const(1, CHART_A))


# ----- zero test against the GaussRat reference -------------------------------

def _reference_is_zero(e):
    """Zero test accumulated term by term in GaussRat, on tuple keys: clear
    r and axis denominators, expand the axis power, rewrite r^2 -> x.x."""
    if e.is_structural_zero():
        return True
    keys = [k for k, _ in e.items()]
    shift_r = max(0, -min(k[1] for k in keys))
    shift_a = max(0, -min(k[2] for k in keys))
    s = e.chart if e.chart else CHART_A
    poly = {}

    def put(key, c):
        prev = poly.get(key)
        nc = c if prev is None else prev + c
        if nc:
            poly[key] = nc
        elif prev is not None:
            del poly[key]

    for (m, rp, ap), c in e.items():
        n = ap + shift_a
        for j in range(n + 1):
            put(((m[0] + j,) + tuple(m[1:]), rp + shift_r + n - j),
                c * (comb(n, j) * s ** j))
    stack = [k for k in poly if k[1] >= 2]
    while stack:
        k = stack.pop()
        c = poly.pop(k, None)
        if not c:
            continue
        m, rp = k
        for i in range(5):
            nk = (tuple(mi + 2 * (i == j) for j, mi in enumerate(m)), rp - 2)
            put(nk, c)
            if nk[1] >= 2 and nk in poly:
                stack.append(nk)
    return not poly


def _chart_scalar(rng, chart, terms=3):
    """Random terms with coefficients of mixed denominators, r and axis
    powers of both signs."""
    out = ScalarExpr.zero()
    for _ in range(terms):
        coeff = GaussRat(Fraction(rng.choice([-5, -2, 1, 3, 7]),
                                  rng.choice([1, 2, 3, 5])),
                         Fraction(rng.choice([-3, 0, 2]), rng.choice([1, 4])))
        mono = [rng.randint(0, 2) for _ in range(5)]
        out = out + ScalarExpr.term(coeff, mono, rp=rng.randint(-3, 1),
                                    ap=rng.randint(-2, 2), chart=chart)
    return out


def _vanishing_through_radius(rng, chart):
    """Two structurally nonzero expressions that are zero only because
    r^2 = x.x:  e (r + s x0)(r - s x0) - e (x1^2 + ... + x4^2), and
    f (r + s x0)^2 - f (x.x + 2 s r x0 + x0^2), whose r x0 terms cancel
    between coefficients of different denominators (q and 2q)."""
    s = 1 if chart == CHART_A else -1
    e, f = _chart_scalar(rng, chart), _chart_scalar(rng, chart)
    rest = ScalarExpr.zero()
    for xi in X[1:]:
        rest = rest + xi * xi
    axis = ScalarExpr.axis_pow(1, chart)
    return (e * (axis * (R - X[0] * s)) - e * rest,
            f * ScalarExpr.axis_pow(2, chart)
            - f * (R * R + R * X[0] * (2 * s) + X[0] * X[0]))


@pytest.mark.parametrize("chart", [CHART_A, CHART_B], ids=["chart-A", "chart-B"])
def test_is_zero_matches_reference(seed, chart):
    rng = random.Random(seed + chart)
    for z in (z for _ in range(6) for z in _vanishing_through_radius(rng, chart)):
        assert not z.is_structural_zero()
        assert _reference_is_zero(z)
        assert is_zero(z)
        near = z + ScalarExpr.term(
            GaussRat(Fraction(rng.choice([-1, 1, 3]), 7),
                     Fraction(rng.choice([0, 2]), 7)),
            [rng.randint(0, 2) for _ in range(5)], rp=rng.randint(-2, 1),
            ap=rng.randint(-1, 1), chart=chart)
        assert not _reference_is_zero(near)
        assert not is_zero(near)
        near_im = z + ScalarExpr.term(
            GaussRat(0, Fraction(rng.choice([-2, 1, 5]), 7)),
            [rng.randint(0, 2) for _ in range(5)], rp=rng.randint(-2, 1),
            ap=rng.randint(-1, 1), chart=chart)
        assert not _reference_is_zero(near_im)
        assert not is_zero(near_im)


@settings(max_examples=60)
@given(e=scalar_exprs(), f=scalar_exprs())
def test_is_zero_matches_reference_on_random_sums(e, f):
    for z in (e - e, e + f, e * f - f * e, e * (R * R) - e * R * R):
        assert is_zero(z) == _reference_is_zero(z)


@pytest.mark.parametrize("mono,rp", [((200, 0, 0, 0, 0), 0),
                                     ((0, 0, 0, 0, 0), -200)],
                         ids=["x0^200", "r^-200"])
def test_is_zero_rejects_exponents_outside_the_packed_range(mono, rp):
    big = ScalarExpr.term(1, mono, rp=rp)
    for e in (big, big + X[1], big - big + X[0] * ScalarExpr.term(1, mono, rp=rp)):
        with pytest.raises(ExponentRange, match="outside"):
            is_zero(e)


def _dot_x():
    out = ScalarExpr.zero()
    for xi in X:
        out = out + xi * xi
    return out


def test_rpow_is_stored_as_one_term():
    """r^k is kept as written, up to the largest exponent a kernel accepts."""
    for k in (2, 31, EXP_LIMIT):
        e = ScalarExpr.term(1, rp=k)
        assert [key for key, _ in e.items()] == [((0, 0, 0, 0, 0), k, 0)]
        assert ScalarExpr.rpow(k) == e
    assert len(R * R) == 1


def _dot_x_pow(n):
    """(x.x)^n by the multinomial theorem, built term by term."""
    terms = {}
    for k in iterproduct(range(n + 1), repeat=4):
        if sum(k) <= n:
            ks = (n - sum(k),) + k
            c = factorial(n)
            for ki in ks:
                c //= factorial(ki)
            terms[(tuple(2 * ki for ki in ks), 0, 0)] = GaussRat(c)
    return ScalarExpr(terms)


def test_is_zero_reduces_high_r_powers():
    assert is_zero(ScalarExpr.rpow(40) - _dot_x_pow(20))
    assert not is_zero(ScalarExpr.rpow(40) - _dot_x_pow(20) * 2)
    assert not is_zero(ScalarExpr.term(3, rp=31) - ScalarExpr.rpow(31))
    assert equals(ScalarExpr.term(3, rp=31) - ScalarExpr.rpow(31),
                  ScalarExpr.rpow(29) * _dot_x() * 2)


def test_is_zero_at_the_r_exponent_limit():
    """x0^60 x4^60 r^63 (r + x0)^-63 = x0^60 x4^60 r^61 (x.x) (r + x0)^-63:
    the r field reaches 2 EXP_LIMIT before the shift of the axis power."""
    lim = EXP_LIMIT
    mono = (60, 0, 0, 0, 60)
    lhs = ScalarExpr.term(1, mono, rp=lim, ap=-lim, chart=CHART_A)
    rhs = ScalarExpr.term(1, mono, rp=lim - 2, ap=-lim, chart=CHART_A) * _dot_x()
    assert equals(lhs, rhs)
    assert not equals(lhs, rhs + ScalarExpr.term(1, mono, ap=-lim, chart=CHART_A))


# ----- evaluation ------------------------------------------------------------

def test_evaluate_exact():
    p = (Fraction(3, 5), Fraction(4, 5), 0, 0, 0)
    assert radius(p) == 1
    assert evaluate(X[0] * R.rpow(-1), p) == GaussRat(Fraction(3, 5), 0)
    assert evaluate(ScalarExpr.axis_pow(-1, CHART_A), p) == GaussRat(Fraction(5, 8), 0)


def test_evaluate_on_bilinear_images():
    """r evaluates to the exact rational radius on image points."""
    for p in rational_points(4):
        assert evaluate(R, p) == radius(p)
        assert evaluate(R.rpow(-2), p) * radius(p) ** 2 == 1


def test_evaluate_singular():
    p = (Fraction(-1), 0, 0, 0, 0)
    with pytest.raises(SingularPoint):
        evaluate(ScalarExpr.axis_pow(-1, CHART_A), p)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(49, 36)) == Fraction(7, 6)
