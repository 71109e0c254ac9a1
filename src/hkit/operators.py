"""Differential operators with su(2) generator words in normal order.

An operator is a finite sum of terms

    c(x) * T1^a T2^b T3^c * d^alpha

with c a ScalarExpr, (a, b, c) a normally ordered generator word and
alpha a 5-tuple of derivative orders.  Generators commute with positions
and derivatives; products of words are rewritten to normal order through
[T_a, T_b] = i eps_abc T_c with memoized rewriting, and composition of
differential parts uses the generalized Leibniz rule.

Composition runs on integers.  Each coefficient's ``ScalarExpr.int_view``
(cached on the expression) holds its terms as Gaussian-integer numerator
pairs (re, im) over the coefficient's common denominator, with each term
key (m0..m4, rp, ap) packed into one int by ``exact.pack_key``; multiplying
two terms is one integer addition of keys and one Gaussian-integer product.
Every output (word, derivative) key accumulates plain integer pairs over
the denominator D_self * D_other of the two operands, and a GaussRat is
built once per raw output term, just before that key is reduced to
canonical form.  No intermediate ScalarExpr or GaussRat is formed per term
product.  Exponents outside [-EXP_LIMIT, EXP_LIMIT] raise ExponentRange.

A Budget can cap the total monomial work of a block of compositions; the
cap turning into TermBudgetExceeded is the signal to switch a check to a
cheaper strategy rather than grind on.  The work charged is counted in
canonical-operand terms (coefficient lengths times word count per Leibniz
contribution), independent of how the result is accumulated.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import product as iterproduct
from math import comb, lcm

from .errors import TermBudgetExceeded
from .exact import (
    CHART_NONE,
    GR_ONE,
    GaussRat,
    Point5,
    ScalarExpr,
    _join_chart,
    unpack_key,
)
from .gmat import SPIN, Mat, meye, mmul

Word = tuple[int, int, int]
Deriv = tuple[int, int, int, int, int]

_W1: Word = (1, 0, 0)
_ZERO_DERIV: Deriv = (0, 0, 0, 0, 0)

EPS3 = {}
for _i, _j, _k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    EPS3[(_i, _j, _k)] = 1
    EPS3[(_i, _k, _j)] = -1


def eps3(a: int, b: int, c: int) -> int:
    return EPS3.get((a, b, c), 0)


# ----- work budget ---------------------------------------------------------

class Budget:
    """Context manager bounding the monomial work done inside its block.

    The active stack is thread-local so budgets in one worker never see
    the other workers' compositions.
    """

    _local = threading.local()

    @classmethod
    def _stack(cls) -> list["Budget"]:
        stack = getattr(cls._local, "stack", None)
        if stack is None:
            stack = []
            cls._local.stack = stack
        return stack

    def __init__(self, limit: int = 2_000_000):
        self.limit = limit
        self.used = 0

    def charge(self, n: int) -> None:
        self.used += n
        if self.used > self.limit:
            raise TermBudgetExceeded(
                f"work {self.used} exceeded budget {self.limit}")

    def __enter__(self):
        Budget._stack().append(self)
        return self

    def __exit__(self, *exc):
        Budget._stack().pop()
        return False


def _charge(n: int) -> None:
    stack = Budget._stack()
    if stack:
        stack[-1].charge(n)


# ----- Leibniz rule ----------------------------------------------------------

_LEIBNIZ: dict[Deriv, list[tuple[Deriv, int, Deriv]]] = {}


def _leibniz(d: Deriv) -> list[tuple[Deriv, int, Deriv]]:
    """The Leibniz rule d^d (c g) = sum over gamma <= d of
    mult * (d^gamma c) * d^(d - gamma) g, as (gamma, mult, d - gamma) with
    mult = prod_i binom(d_i, gamma_i), in itertools.product order."""
    out = _LEIBNIZ.get(d)
    if out is None:
        out = []
        for gamma in iterproduct(*(range(n + 1) for n in d)):
            mult = 1
            for n, g in zip(d, gamma):
                mult *= comb(n, g)
            out.append((gamma, mult,
                        tuple(n - g for n, g in zip(d, gamma))))
        _LEIBNIZ[d] = out
    return out


# ----- normal ordering of generator words ----------------------------------

_GEN_MEMO: dict[tuple[Word, int], dict[Word, GaussRat]] = {}
_WORD_MEMO: dict[tuple[Word, Word], dict[Word, GaussRat]] = {}

_I = GaussRat(0, 1)
_NEG_I = GaussRat(0, -1)


def _gen_right(w: Word, g: int) -> dict[Word, GaussRat]:
    """Normal ordering of (word * T_g)."""
    a, b, c = w
    if g == 3:
        return {(a, b, c + 1): GR_ONE}
    memo = _GEN_MEMO.get((w, g))
    if memo is not None:
        return memo
    out: dict[Word, GaussRat] = {}
    if g == 2:
        if c == 0:
            out[(a, b + 1, 0)] = GR_ONE
        else:
            # T3 T2 = T2 T3 - i T1
            for w2, coef in _gen_right((a, b, c - 1), 2).items():
                _acc_word(out, (w2[0], w2[1], w2[2] + 1), coef)
            for w2, coef in _gen_right((a, b, c - 1), 1).items():
                _acc_word(out, w2, coef * _NEG_I)
    else:  # g == 1
        if b == 0 and c == 0:
            out[(a + 1, 0, 0)] = GR_ONE
        elif c > 0:
            # T3 T1 = T1 T3 + i T2
            for w2, coef in _gen_right((a, b, c - 1), 1).items():
                _acc_word(out, (w2[0], w2[1], w2[2] + 1), coef)
            for w2, coef in _gen_right((a, b, c - 1), 2).items():
                _acc_word(out, w2, coef * _I)
        else:
            # T2 T1 = T1 T2 - i T3
            for w2, coef in _gen_right((a, b - 1, 0), 1).items():
                for w3, coef2 in _gen_right(w2, 2).items():
                    _acc_word(out, w3, coef * coef2)
            for w2, coef in _gen_right((a, b - 1, 0), 3).items():
                _acc_word(out, w2, coef * _NEG_I)
    _GEN_MEMO[(w, g)] = out
    return out


def _acc_word(acc: dict[Word, GaussRat], w: Word, c: GaussRat) -> None:
    prev = acc.get(w)
    nc = c if prev is None else prev + c
    if nc:
        acc[w] = nc
    elif prev is not None:
        del acc[w]


def word_mul(w1: Word, w2: Word) -> dict[Word, GaussRat]:
    """Normal ordering of the concatenation w1 . w2."""
    if w1 == (0, 0, 0):
        return {w2: GR_ONE}
    if w2 == (0, 0, 0):
        return {w1: GR_ONE}
    memo = _WORD_MEMO.get((w1, w2))
    if memo is not None:
        return memo
    acc: dict[Word, GaussRat] = {w1: GR_ONE}
    for g, reps in ((1, w2[0]), (2, w2[1]), (3, w2[2])):
        for _ in range(reps):
            nxt: dict[Word, GaussRat] = {}
            for w, c in acc.items():
                for wn, cn in _gen_right(w, g).items():
                    _acc_word(nxt, wn, c * cn)
            acc = nxt
    _WORD_MEMO[(w1, w2)] = acc
    return acc


def word_matrix(w: Word) -> Mat:
    """Spin-1/2 matrix of a generator word, the independent oracle."""
    m = meye(2)
    for g, reps in ((1, w[0]), (2, w[1]), (3, w[2])):
        for _ in range(reps):
            m = mmul(m, SPIN[g])
    return m


# ----- operators ------------------------------------------------------------

class OperatorExpr:
    """Finite sum of c(x) * generator-word * derivative terms."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict[tuple[Word, Deriv], ScalarExpr] | None = None):
        t = {}
        if terms:
            for k, v in terms.items():
                if not v.is_structural_zero():
                    t[k] = v
        self._t = t

    # constructors

    @staticmethod
    def zero() -> "OperatorExpr":
        return OperatorExpr()

    @staticmethod
    def identity() -> "OperatorExpr":
        return OperatorExpr.from_scalar(ScalarExpr.const(1))

    @staticmethod
    def from_scalar(c: ScalarExpr) -> "OperatorExpr":
        return OperatorExpr({((0, 0, 0), _ZERO_DERIV): c})

    @staticmethod
    def from_const(c) -> "OperatorExpr":
        return OperatorExpr.from_scalar(ScalarExpr.const(c))

    @staticmethod
    def deriv(i: int) -> "OperatorExpr":
        d = [0] * 5
        d[i] = 1
        return OperatorExpr({((0, 0, 0), tuple(d)): ScalarExpr.const(1)})

    @staticmethod
    def iso(a: int) -> "OperatorExpr":
        w = [0, 0, 0]
        w[a - 1] = 1
        return OperatorExpr({(tuple(w), _ZERO_DERIV): ScalarExpr.const(1)})

    # inspection

    def items(self):
        return self._t.items()

    def __len__(self):
        return len(self._t)

    def term_count(self) -> int:
        return sum(len(c) for c in self._t.values())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._t.values())

    def is_structural_zero(self) -> bool:
        return not self._t

    # algebra

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = OperatorExpr.from_const(other)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        if not self._t:
            return other
        if not other._t:
            return self
        acc = dict(self._t)
        for k, c in other._t.items():
            prev = acc.get(k)
            nc = c if prev is None else prev + c
            if nc.is_structural_zero():
                if prev is not None:
                    del acc[k]
            else:
                acc[k] = nc
        return OperatorExpr(acc)

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr({k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = OperatorExpr.from_const(other)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Scaling by central constants only; use @ for composition."""
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.coerce(other)
            if not c:
                return OperatorExpr()
            return OperatorExpr({k: v * c for k, v in self._t.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        # every key pair costs at least one unit; charging the floor up
        # front lets a budget rule out an oversized composition cheaply
        _charge(len(self._t) * len(other._t))
        # Each output (word, deriv) key owns one raw dict from packed term
        # key to [re, im], a Gaussian-integer numerator over the shared
        # denominator D = D_self * D_other.  A Leibniz term c1 * d^gamma c2
        # is multiplied term by term from the operands' integer views: the
        # key is one addition, the coefficient a product of two Gaussian
        # integers.  c1's view is first scaled by the binomial multiplicity,
        # the word coefficient and the rescale of both view denominators to
        # D, unless that factor is 1.  Zeros and r^2 are left for the single
        # canonicalization of each key when the result is built, so every
        # key keeps the term order of a plain term-by-term sum.  The charges
        # count the canonical operands (terms of c1 and of d^gamma c2, times
        # words), not the raw sums, so budget decisions do not depend on
        # this.
        d_self = lcm(*(c.int_view()[0] for c in self._t.values()))
        d_other = lcm(*(c.int_view()[0] for c in other._t.values()))
        raw: dict[tuple[Word, Deriv], dict[int, list[int]]] = {}
        charts: dict[tuple[Word, Deriv], int] = {}
        for (w1, d1), c1 in self._t.items():
            den1, v1 = c1.int_view()
            n1 = len(v1)
            f1 = d_self // den1
            chart1 = c1.chart
            leibniz = _leibniz(d1)
            for (w2, d2), c2 in other._t.items():
                words = word_mul(w1, w2)
                nw = len(words)
                for gamma, mult, rest in leibniz:
                    dc2 = c2.multi_diff(gamma)
                    if not dc2._t:
                        continue
                    _charge(n1 * len(dc2._t) * nw)
                    chart = (chart1 if chart1 == dc2.chart
                             else _join_chart(chart1, dc2.chart))
                    den2, v2 = dc2.int_view()
                    # a derivative's coefficients are integer multiples and
                    # sums of c2's, so its denominator divides d_other
                    f = d_other // den2 * f1 * mult
                    dres = (rest[0] + d2[0], rest[1] + d2[1], rest[2] + d2[2],
                            rest[3] + d2[3], rest[4] + d2[4])
                    for w, wc in words.items():
                        if wc.d != 1:
                            raise ArithmeticError(
                                f"word coefficient {wc!r} is not a Gaussian "
                                "integer")
                        key = (w, dres)
                        acc = raw.get(key)
                        if acc is None:
                            acc = raw[key] = {}
                            charts[key] = chart
                        elif charts[key] != chart:
                            charts[key] = _join_chart(charts[key], chart)
                        sa, sb = wc.a * f, wc.b * f
                        u1 = v1 if sa == 1 and sb == 0 else [
                            (p1, a1 * sa - b1 * sb, a1 * sb + b1 * sa)
                            for p1, a1, b1 in v1]
                        get = acc.get
                        for p1, a1, b1 in u1:
                            for p2, a2, b2 in v2:
                                tk = p1 + p2
                                e = get(tk)
                                if e is None:
                                    acc[tk] = [a1 * a2 - b1 * b2,
                                               a1 * b2 + b1 * a2]
                                else:
                                    e[0] += a1 * a2 - b1 * b2
                                    e[1] += a1 * b2 + b1 * a2
        den = d_self * d_other
        make = GaussRat._make
        return OperatorExpr({
            key: ScalarExpr({unpack_key(tk): make(re, im, den)
                             for tk, (re, im) in acc.items()}, charts[key])
            for key, acc in raw.items()})

    def __repr__(self):
        return f"OperatorExpr({len(self._t)} terms, {self.term_count()} monomials)"


# ----- spin-1/2 function application ----------------------------------------

class IsoFun:
    """Two-component function on which operators act in the spin-1/2
    representation: generators as sigma_a/2, derivatives componentwise."""

    __slots__ = ("c",)

    def __init__(self, up: ScalarExpr, down: ScalarExpr):
        self.c = (up, down)

    def __add__(self, other: "IsoFun") -> "IsoFun":
        return IsoFun(self.c[0] + other.c[0], self.c[1] + other.c[1])

    def __sub__(self, other: "IsoFun") -> "IsoFun":
        return IsoFun(self.c[0] - other.c[0], self.c[1] - other.c[1])

    def scale(self, g) -> "IsoFun":
        return IsoFun(self.c[0] * g, self.c[1] * g)

    def is_zero(self) -> bool:
        return self.c[0].is_zero() and self.c[1].is_zero()

    def evaluate(self, p: Point5) -> tuple[complex, complex]:
        out = []
        for comp in self.c:
            v = comp.evaluate(p)
            out.append(v.to_complex() if isinstance(v, GaussRat) else complex(v))
        return tuple(out)


def apply(op: OperatorExpr, f: IsoFun) -> IsoFun:
    """Apply an operator to a two-component function, spin-1/2 generators.

    Accumulates raw term dicts and canonicalizes once at the end; building
    the image through repeated ScalarExpr addition would copy the growing
    sum once per operator term.
    """
    acc: tuple[dict, dict] = ({}, {})
    charts = [CHART_NONE, CHART_NONE]
    for (w, d), coeff in op.items():
        g0 = f.c[0].multi_diff(d)
        g1 = f.c[1].multi_diff(d)
        m = word_matrix(w)
        h0 = g0 * m[0][0] + g1 * m[0][1]
        h1 = g0 * m[1][0] + g1 * m[1][1]
        _charge(len(coeff._t) * (len(h0._t) + len(h1._t) + 1))
        for slot, h in ((0, h0), (1, h1)):
            if h.is_structural_zero():
                continue
            prod = coeff * h
            if prod.is_structural_zero():
                continue
            charts[slot] = _join_chart(charts[slot], prod.chart)
            a = acc[slot]
            for k, v in prod._t.items():
                prev = a.get(k)
                nv = v if prev is None else prev + v
                if nv:
                    a[k] = nv
                elif prev is not None:
                    del a[k]
    return IsoFun(ScalarExpr(acc[0], charts[0]),
                  ScalarExpr(acc[1], charts[1]))
