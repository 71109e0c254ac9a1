"""Operator layer: PBW words, composition, Leibniz rule, work budget."""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from itertools import product as iterproduct
from math import comb

import pytest

from hkit.errors import ExponentRange, TermBudgetExceeded
from hkit.exact import (
    CHART_A,
    CHART_B,
    EXP_LIMIT,
    GR_I,
    GR_ONE,
    GaussRat,
    R,
    ScalarExpr,
    X,
    _join_chart,
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
    word_matrix,
    word_mul,
)


def _matrix_of(op, point):
    """Spin-1/2 matrix of a pure isospin operator, via the word oracle."""
    m = mzero(2)
    for (iso, deriv), coeff in op.items():
        assert deriv == (0, 0, 0, 0, 0)
        m = madd(m, mscale(coeff.evaluate(point), word_matrix(iso)))
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
        resid = t[a] @ t[b] - t[b] @ t[a] - OperatorExpr.from_const(
            GaussRat(0, sign)) @ t[c]
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
    f = IsoFun(X[0] * X[1] * R.rpow(-1), X[2] + X[3] * X[4])
    combined = apply(a @ b, f)
    nested = apply(a, apply(b, f))
    for got, want in zip(combined.c, nested.c):
        assert (got - want).is_zero()


def _max_residual(op, points):
    """Largest coefficient magnitude of an operator over sample points."""
    worst = 0.0
    for _, c in op.items():
        for p in points:
            v = c.evaluate(p)
            worst = max(worst, abs(v.to_complex() if isinstance(v, GaussRat)
                                   else v))
    return worst


def test_operator_residual_vanishes_on_identity(sample_points):
    d0, x0 = OperatorExpr.deriv(0), OperatorExpr.from_scalar(X[0])
    d0x0 = d0 @ x0 - x0 @ d0
    resid = d0x0 - OperatorExpr.identity()
    assert _max_residual(resid, sample_points) == 0.0


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


# ----- integer kernel against the GaussRat reference -------------------------

def _reference_matmul(a, b):
    """Composition accumulated term by term in GaussRat, without packed keys
    or integer numerators: the kernel's definition, kept as its oracle."""
    raw, charts = {}, {}
    for (w1, d1), c1 in a.items():
        for (w2, d2), c2 in b.items():
            words = word_mul(w1, w2)
            for gamma in iterproduct(*(range(n + 1) for n in d1)):
                dc2 = c2.multi_diff(gamma)
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
    return OperatorExpr({key: ScalarExpr(acc, charts[key])
                         for key, acc in raw.items()})


def _assert_same_terms(got, want):
    """Equal operators with keys, and each coefficient's terms, in the same
    order: the float C4 check sums terms in this order."""
    assert [k for k, _ in got.items()] == [k for k, _ in want.items()]
    for (_, g), (_, w) in zip(got.items(), want.items()):
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
    big = OperatorExpr.from_scalar(ScalarExpr.term(1, mono, rp=rp))
    small = OperatorExpr.from_scalar(X[1]) @ OperatorExpr.deriv(0)
    for x, y in ((big, small), (small, big)):
        with pytest.raises(ExponentRange, match="outside"):
            _ = x @ y


def test_word_coefficients_are_gaussian_integers():
    """The kernel scales by word coefficients as Gaussian integers."""
    words = [w for w in iterproduct(range(3), repeat=3)]
    for w1 in words:
        for w2 in words:
            assert all(c.d == 1 for c in word_mul(w1, w2).values())
