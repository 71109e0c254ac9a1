"""Operator layer: PBW words, composition, Leibniz rule."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iterproduct
from math import comb

import pytest

from hkit.errors import ExponentRange
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
    _join_chart,
)
from hkit.gmat import SPIN, mmul, mscale
from hkit.operators import OperatorExpr, word_matrix, word_mul

from reference import apply, commutator, evaluate, is_zero, multi_diff, op_terms


def _matrix_of(op, point):
    """Spin-1/2 matrix of a pure isospin operator, via the word oracle."""
    parts = []
    for (iso, deriv), coeff in op_terms(op).items():
        assert deriv == (0, 0, 0, 0, 0)
        parts.append(mscale(evaluate(coeff, point), word_matrix(iso)))
    return tuple(tuple(sum((m[i][j] for m in parts), GR_ZERO)
                       for j in range(2)) for i in range(2))


def test_pbw_reordering_matches_matrix_oracle(sample_points):
    """Normal ordering rewrites T_b T_a words; the 2x2 representation must
    not notice."""
    p = sample_points[0]
    gens = {a: OperatorExpr.iso(a) for a in (1, 2, 3)}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            assert _matrix_of(gens[a] @ gens[b], p) == mmul(SPIN[a], SPIN[b])
    scrambled = gens[3] @ gens[2] @ gens[1] @ gens[2]
    direct = mmul(mmul(SPIN[3], SPIN[2]), mmul(SPIN[1], SPIN[2]))
    assert _matrix_of(scrambled, p) == direct


def test_su2_commutators():
    """[T_a, T_b] = i eps_abc T_c with the sign the generators actually carry."""
    t = {a: OperatorExpr.iso(a) for a in (1, 2, 3)}
    sign = 1 if commutator(SPIN[1], SPIN[2]) == mscale(GR_I, SPIN[3]) else -1
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        resid = t[a] @ t[b] - t[b] @ t[a] - t[c] * GaussRat(0, sign)
        assert resid.is_zero()


def test_canonical_commutator():
    """[d_i, x_i] = 1 after normal ordering."""
    for i in range(5):
        d = OperatorExpr.deriv(i)
        x = OperatorExpr.from_scalar(X[i])
        resid = d @ x - x @ d - OperatorExpr.identity()
        assert resid.is_zero()
        y = OperatorExpr.from_scalar(X[(i + 1) % 5])
        assert (d @ y - y @ d).is_zero()


def test_apply_composition(sample_points):
    """apply(A @ B, f) = apply(A, apply(B, f)) pointwise on sample points."""
    a = OperatorExpr.deriv(0) @ OperatorExpr.from_scalar(X[1] * R.rpow(-1))
    b = OperatorExpr.iso(2) @ OperatorExpr.deriv(1) + OperatorExpr.from_scalar(X[0])
    f = (X[0] * X[1] * R.rpow(-1), X[2] + X[3] * X[4])
    combined = apply(a @ b, f)
    nested = apply(a, apply(b, f))
    for got, want in zip(combined, nested):
        assert is_zero(got - want)


def _max_residual(op, points):
    """Largest coefficient magnitude of an operator over sample points."""
    worst = 0.0
    for c in op_terms(op).values():
        for p in points:
            v = evaluate(c, p)
            worst = max(worst, abs(v.to_complex() if isinstance(v, GaussRat)
                                   else v))
    return worst


def test_operator_residual_vanishes_on_identity(sample_points):
    d0, x0 = OperatorExpr.deriv(0), OperatorExpr.from_scalar(X[0])
    d0x0 = d0 @ x0 - x0 @ d0
    resid = d0x0 - OperatorExpr.identity()
    assert _max_residual(resid, sample_points) == 0.0


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
    f = (_random_scalar(rng, request.param, 3),
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
    for got, want in zip(combined, nested):
        assert is_zero(got - want)


def test_matmul_coefficients_are_canonical(random_ops):
    """`@` stores no empty coefficient and no zero term."""
    a, b, c, _ = random_ops
    for prod in (a @ b, b @ c, (a @ b) @ c):
        assert len(prod) > 0
        for coeff in op_terms(prod).values():
            assert not coeff.is_structural_zero()
            assert all(c for _, c in coeff.items())


# ----- integer kernel against the GaussRat reference -------------------------

def _reference_matmul(a, b):
    """Composition accumulated term by term in GaussRat, without packed keys
    or integer numerators: the kernel's definition, kept as its oracle."""
    raw, charts = {}, {}
    for (w1, d1), c1 in op_terms(a).items():
        for (w2, d2), c2 in op_terms(b).items():
            words = word_mul(w1, w2)
            for gamma in iterproduct(*(range(n + 1) for n in d1)):
                dc2 = multi_diff(c2, gamma)
                if dc2.is_structural_zero():
                    continue
                chart = _join_chart(c1.chart, dc2.chart)
                mult = 1
                for n, g in zip(d1, gamma):
                    mult *= comb(n, g)
                dres = tuple(n - g + m for n, g, m in zip(d1, gamma, d2))
                targets = []
                for w, wc in words.items():
                    key = (w, dres)
                    acc = raw.get(key)
                    if acc is None:
                        acc = raw[key] = {}
                        charts[key] = chart
                    else:
                        charts[key] = _join_chart(charts[key], chart)
                    scale = wc * mult if mult != 1 else wc
                    targets.append((acc, None if scale == GR_ONE else scale))
                for (m1, r1, a1), v1 in c1.items():
                    for (m2, r2, a2), v2 in dc2.items():
                        tk = (tuple(x + y for x, y in zip(m1, m2)),
                              r1 + r2, a1 + a2)
                        v = v1 * v2
                        for acc, scale in targets:
                            c = v if scale is None else v * scale
                            prev = acc.get(tk)
                            acc[tk] = c if prev is None else prev + c
    return OperatorExpr({key: ScalarExpr({k: c for k, c in acc.items() if c},
                                         charts[key])
                         for key, acc in raw.items()})


def _assert_same_terms(got, want):
    """Equal operators with keys, and each coefficient's terms, in the same
    order: the float C4 check sums terms in this order."""
    got, want = op_terms(got), op_terms(want)
    assert list(got) == list(want)
    for g, w in zip(got.values(), want.values()):
        assert g.chart == w.chart
        assert list(g.items()) == list(w.items())


_SCALES = (Fraction(3, 2), Fraction(1, 3), GaussRat(0, Fraction(2, 5)))


def test_matmul_matches_reference(random_ops):
    a, b, c, _ = random_ops
    for s1, s2 in zip(_SCALES, _SCALES[1:] + _SCALES[:1]):
        for x, y in ((a, b), (b, c), (c, a)):
            x, y = x * s1, y * s2
            _assert_same_terms(x @ y, _reference_matmul(x, y))
    ab = (a * _SCALES[2]) @ b
    _assert_same_terms(ab @ (c * _SCALES[0]),
                       _reference_matmul(ab, c * _SCALES[0]))


def test_matmul_matches_reference_at_the_exponent_limit():
    """Fields at +-EXP_LIMIT sum to +-2 EXP_LIMIT without touching a
    neighbouring field."""
    lim = EXP_LIMIT
    e = (ScalarExpr.term(Fraction(3, 2), (lim, 0, lim, 0, 0), rp=-lim, ap=lim,
                         chart=CHART_A)
         + ScalarExpr.term(GaussRat(0, Fraction(2, 5)), (0, lim, 0, 0, lim),
                           rp=1, ap=-lim, chart=CHART_A))
    op = OperatorExpr({((1, 0, 0), (0, 0, 0, 0, 0)): e})
    got = op @ op
    _assert_same_terms(got, _reference_matmul(op, op))
    assert got.term_count() > 0


@pytest.mark.parametrize("mono,rp", [((200, 0, 0, 0, 0), 0),
                                     ((0, 0, 0, 0, 0), -200)],
                         ids=["x0^200", "r^-200"])
def test_matmul_rejects_exponents_outside_the_packed_range(mono, rp):
    """`@` and every kind of `combine` part raise ExponentRange."""
    big = OperatorExpr.from_scalar(ScalarExpr.term(1, mono, rp=rp))
    small = OperatorExpr.from_scalar(X[1]) @ OperatorExpr.deriv(0)
    for x, y in ((big, small), (small, big)):
        with pytest.raises(ExponentRange, match="outside"):
            _ = x @ y
    for parts in ([(Fraction(1, 3), big, small)],
                  [(1, small, small), (GaussRat(0, 1), small, big)],
                  [(1, small, small), (2, big, None)]):
        with pytest.raises(ExponentRange, match="outside"):
            OperatorExpr.combine(parts)


@pytest.mark.parametrize("big", [(1 << 30) - 1, (1 << 30) + 1, 1 << 33],
                         ids=["below-2^62", "just-past-2^62", "past-2^64"])
def test_matmul_across_the_int64_bound_matches_reference(big):
    """c1 = big x0 + i big x1 / r on T1 d0 and c2 = big x0^2 on T2 make
    two blocks, the gamma = e0 one with l1 bound |s| ||c1|| ||d0 c2|| =
    1 * 2 big * 2 big = 4 big^2: below 2^62, just past it, where the kernel
    switches to Python ints, and far past 2^64, where int64 would wrap.
    Each product must equal the GaussRat reference term for term."""
    a = OperatorExpr({((1, 0, 0), (1, 0, 0, 0, 0)):
                      ScalarExpr.term(big, (1, 0, 0, 0, 0))
                      + ScalarExpr.term(GaussRat(0, big), (0, 1, 0, 0, 0),
                                        rp=-1)})
    b = OperatorExpr({((0, 1, 0), (0, 0, 0, 0, 0)):
                      ScalarExpr.term(big, (2, 0, 0, 0, 0))})
    got = a @ b
    _assert_same_terms(got, _reference_matmul(a, b))
    assert max(abs(c.a) + abs(c.b) for v in op_terms(got).values()
               for _, c in v.items()) == 2 * big * big


def test_word_coefficients_are_gaussian_integers():
    """The kernel scales by word coefficients as Gaussian integers."""
    words = [w for w in iterproduct(range(3), repeat=3)]
    for w1 in words:
        for w2 in words:
            assert all(c.d == 1 for c in word_mul(w1, w2).values())


# ----- fused sums of products ------------------------------------------------

def test_combine_matches_the_unfused_sum(random_ops):
    a, b, c, _ = random_ops
    c1, c2, c3 = GaussRat(3, -2, 7), Fraction(-5, 3), GaussRat(0, 1)
    fused = OperatorExpr.combine([(c1, a, b), (c2, b, a), (c3, c, None)])
    unfused = (a @ b) * c1 + (b @ a) * c2 + c * c3
    assert not fused.is_zero()
    assert (fused - unfused).is_zero()


def test_combine_of_one_product_is_matmul(random_ops):
    """One part keeps the keys and term order of `@`, and of the GaussRat
    reference, with its coefficient folded into the first factor."""
    a, b, c, _ = random_ops
    for s, x, y in ((1, a, b), (Fraction(-5, 3), b, c),
                    (GaussRat(3, -2, 7), c, a)):
        got = OperatorExpr.combine([(s, x, y)])
        _assert_same_terms(got, (x * s) @ y)
        _assert_same_terms(got, _reference_matmul(x * s, y))


def test_combine_of_nothing_is_a_structural_zero(random_ops):
    a, b, _, _ = random_ops
    empty = OperatorExpr.zero()
    for parts in ([], [(0, a, b)], [(Fraction(0), a, None)],
                  [(GaussRat(0), b, a)], [(1, empty, b)], [(1, a, empty)],
                  [(2, empty, None)], [(1, a, b), (-1, a, b)],
                  [(Fraction(2, 3), a, None), (Fraction(-2, 3), a, None)]):
        assert OperatorExpr.combine(parts).is_structural_zero()


def test_batched_sums_match_one_sum_at_a_time(random_ops):
    """combine_many keeps each sum exactly as combine makes it alone, and
    combines_are_zero decides each sum as its combine's is_zero does."""
    a, b, c, _ = random_ops
    sums = [[(1, a, b)],
            [(Fraction(-5, 3), b, c), (GaussRat(3, -2, 7), c, None)],
            [], [(1, a, b), (-1, a, b)], [(2, c, a), (1, a, None)],
            [(Fraction(2, 3), a, None), (Fraction(-2, 3), a, None)]]
    for got, parts in zip(OperatorExpr.combine_many(sums), sums):
        _assert_same_terms(got, OperatorExpr.combine(parts))
    assert OperatorExpr.combines_are_zero(sums) == [
        False, False, True, True, False, True]
