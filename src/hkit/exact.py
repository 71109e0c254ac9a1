"""Exact scalar algebra on R^5 with a square-root radius adjoined.

Expressions live in Q(i)[x0..x4, r] / (r^2 - x.x), localized at r and at one
axis factor, either (r + x0) or (r - x0).  A term is stored as

    coeff * x0^m0 ... x4^m4 * r^rp * (r + s*x0)^ap

with an exact Gaussian-rational coeff, monomial exponents >= 0, rp in {0, 1}
on the polynomial side (negative rp means a 1/r^|rp| factor) and ap any
integer.  s = +1 or -1 is the chart sign; the two denominator monoids never
mix inside a single expression.

Equality testing clears denominators and reduces modulo the radius relation.
That is sound because r^2 - x.x is irreducible, so the quotient is an
integral domain in which r and (r +- x0) are nonzero divisors.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt
from typing import Iterable, Iterator

from .errors import ChartMismatch, SingularPoint

Mono = tuple[int, int, int, int, int]
TermKey = tuple[Mono, int, int]

_ZERO_MONO: Mono = (0, 0, 0, 0, 0)

CHART_A = 1
CHART_B = -1
CHART_NONE = 0


class GaussRat:
    """Gaussian rational (a + b*i)/d with integer a, b and d > 0, fully reduced."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            fa, fb = Fraction(a), Fraction(b)
            d = d * fa.denominator * fb.denominator
            a = fa.numerator * fb.denominator
            b = fb.numerator * fa.denominator
        if d == 0:
            raise ZeroDivisionError("GaussRat with zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a = a
        self.b = b
        self.d = d

    @staticmethod
    def _make(a: int, b: int, d: int) -> "GaussRat":
        out = object.__new__(GaussRat)
        if d < 0:
            a, b, d = -a, -b, -d
        if d != 1:
            g = gcd(a, b, d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        out.a = a
        out.b = b
        out.d = d
        return out

    @staticmethod
    def coerce(v) -> "GaussRat":
        if isinstance(v, GaussRat):
            return v
        if isinstance(v, int):
            return GaussRat._make(v, 0, 1)
        if isinstance(v, Fraction):
            return GaussRat._make(v.numerator, 0, v.denominator)
        raise TypeError(f"cannot coerce {type(v).__name__} to GaussRat")

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRat.coerce(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat._make(
            self.a * other.d + other.a * self.d,
            self.b * other.d + other.b * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __neg__(self):
        return GaussRat._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat._make(
            self.a * other.d - other.a * self.d,
            self.b * other.d - other.b * self.d,
            self.d * other.d,
        )

    def __rsub__(self, other):
        return GaussRat.coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return GaussRat._make(
                self.a * other.a - self.b * other.b,
                self.a * other.b + self.b * other.a,
                self.d * other.d,
            )
        if isinstance(other, int):
            return GaussRat._make(self.a * other, self.b * other, self.d)
        if isinstance(other, Fraction):
            return GaussRat._make(
                self.a * other.numerator, self.b * other.numerator,
                self.d * other.denominator,
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero GaussRat")
        return GaussRat._make(self.d * self.a, -self.d * self.b, n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat.coerce(other)
        return self * other.inverse()

    def conjugate(self) -> "GaussRat":
        return GaussRat._make(self.a, -self.b, self.d)

    @property
    def is_real(self) -> bool:
        return self.b == 0

    def real_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return Fraction(self.a, self.d)

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        if self.b == 0:
            return f"{Fraction(self.a, self.d)}"
        if self.a == 0:
            return f"{Fraction(self.b, self.d)}*i"
        return f"({Fraction(self.a, self.d)}{'+' if self.b > 0 else '-'}{abs(Fraction(self.b, self.d))}*i)"


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    sn, sd = isqrt(q.numerator), isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return None


class Point5:
    """A point of R^5, exact (all Fractions) or floating."""

    __slots__ = ("xs", "exact")

    def __init__(self, xs: Iterable):
        vals = tuple(xs)
        if len(vals) != 5:
            raise ValueError("Point5 needs exactly five coordinates")
        if all(isinstance(v, (int, Fraction)) for v in vals):
            self.xs = tuple(Fraction(v) for v in vals)
            self.exact = True
        else:
            self.xs = tuple(float(v) for v in vals)
            self.exact = False

    def r_squared(self):
        return sum(v * v for v in self.xs)

    def radius(self):
        """The radius; a Fraction when exact and a perfect square, else float."""
        r2 = self.r_squared()
        if self.exact:
            rt = rational_sqrt(r2)
            if rt is not None:
                return rt
            return float(r2) ** 0.5
        return r2 ** 0.5

    def __iter__(self) -> Iterator:
        return iter(self.xs)

    def __repr__(self):
        return f"Point5({list(self.xs)})"


def _join_chart(c1: int, c2: int) -> int:
    if c1 == c2 or c2 == CHART_NONE:
        return c1
    if c1 == CHART_NONE:
        return c2
    raise ChartMismatch("cannot combine chart-A and chart-B expressions")


def _mono_add(m1: Mono, m2: Mono) -> Mono:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2],
            m1[3] + m2[3], m1[4] + m2[4])


def _canonicalize(terms: dict[TermKey, GaussRat]) -> dict[TermKey, GaussRat]:
    """Reduce numerator r-degree to {0,1}, re-lump x.x multiples, drop zeros."""
    stack = [k for k in terms if k[1] >= 2]
    while stack:
        k = stack.pop()
        c = terms.pop(k, None)
        if not c:
            continue
        m, rp, ap = k
        for i in range(5):
            m2 = list(m)
            m2[i] += 2
            nk = ((m2[0], m2[1], m2[2], m2[3], m2[4]), rp - 2, ap)
            prev = terms.get(nk)
            nc = c if prev is None else prev + c
            if nc:
                terms[nk] = nc
                if nk[1] >= 2:
                    stack.append(nk)
            elif prev is not None:
                del terms[nk]
    for k in [k for k, c in terms.items() if not c]:
        del terms[k]
    # Opportunistic inverse reduction: equal-coefficient sums
    # sum_i c x^(m+2e_i) r^rp collapse back to c x^m r^(rp+2) when rp <= -1.
    # Each group is found from its x0^2 member, so without a key of that
    # shape there is nothing to collapse.
    changed = any(rp <= -1 and m[0] >= 2 for m, rp, _ in terms)
    while changed:
        changed = False
        for key in list(terms.keys()):
            m, rp, ap = key
            if rp > -1 or m[0] < 2:
                continue
            base = (m[0] - 2, m[1], m[2], m[3], m[4])
            sibs = []
            for i in range(5):
                mb = list(base)
                mb[i] += 2
                sibs.append(((mb[0], mb[1], mb[2], mb[3], mb[4]), rp, ap))
            c0 = terms.get(sibs[0])
            if c0 is None or any(terms.get(s) != c0 for s in sibs[1:]):
                continue
            for s in sibs:
                del terms[s]
            nk = (base, rp + 2, ap)
            prev = terms.get(nk)
            nc = c0 if prev is None else prev + c0
            if nc:
                terms[nk] = nc
            elif prev is not None:
                del terms[nk]
            changed = True
            break
    return terms


class ScalarExpr:
    """Immutable element of the localized radius ring on one chart.

    The constructor takes ownership of ``terms``: unless ``_canonical`` says
    it is canonical already, it is reduced in place and kept, so callers
    pass a dict built for this expression and do not touch it afterwards.
    """

    __slots__ = ("_t", "chart", "_hash", "_dcache")

    def __init__(self, terms: dict[TermKey, GaussRat], chart: int = CHART_NONE,
                 _canonical: bool = False):
        if not _canonical:
            terms = _canonicalize(terms)
        if not any(k[2] for k in terms):
            chart = CHART_NONE
        elif chart == CHART_NONE:
            raise ChartMismatch("axis factors present but no chart given")
        self._t = terms
        self.chart = chart
        self._hash = None
        self._dcache = {}

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ScalarExpr":
        return _SE_ZERO

    @staticmethod
    def const(c, chart: int = CHART_NONE) -> "ScalarExpr":
        c = GaussRat.coerce(c)
        if not c:
            return _SE_ZERO
        return ScalarExpr({(_ZERO_MONO, 0, 0): c}, CHART_NONE, _canonical=True)

    @staticmethod
    def coord(i: int) -> "ScalarExpr":
        mono = [0] * 5
        mono[i] = 1
        return ScalarExpr({(tuple(mono), 0, 0): GR_ONE}, CHART_NONE,
                          _canonical=True)

    @staticmethod
    def rpow(k: int) -> "ScalarExpr":
        """r^k for any integer k (k >= 2 reduces through the radius relation)."""
        return ScalarExpr({(_ZERO_MONO, k, 0): GR_ONE}, CHART_NONE)

    @staticmethod
    def axis_pow(q: int, chart: int = CHART_A) -> "ScalarExpr":
        """(r + s*x0)^q on the requested chart, s = chart sign."""
        if q == 0:
            return ScalarExpr.const(1)
        return ScalarExpr({(_ZERO_MONO, 0, q): GR_ONE}, chart, _canonical=True)

    @staticmethod
    def term(coeff, mono: Iterable[int] = _ZERO_MONO, rp: int = 0, ap: int = 0,
             chart: int = CHART_NONE) -> "ScalarExpr":
        """Single-term expression coeff * x^mono * r^rp * (r + s*x0)^ap."""
        c = GaussRat.coerce(coeff)
        if not c:
            return _SE_ZERO
        key = (tuple(mono), rp, ap)
        if ap != 0 and chart == CHART_NONE:
            raise ChartMismatch("axis power without a chart")
        return ScalarExpr({key: c}, chart if ap != 0 else CHART_NONE)

    # ----- ring operations ----------------------------------------------

    def items(self):
        return self._t.items()

    def __len__(self):
        return len(self._t)

    def is_structural_zero(self) -> bool:
        return not self._t

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = ScalarExpr.const(other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        chart = _join_chart(self.chart, other.chart)
        if not self._t:
            return other
        if not other._t:
            return self
        acc = dict(self._t)
        for k, c in other._t.items():
            prev = acc.get(k)
            nc = c if prev is None else prev + c
            if nc:
                acc[k] = nc
            elif prev is not None:
                del acc[k]
        return ScalarExpr(acc, chart)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr({k: -c for k, c in self._t.items()}, self.chart,
                          _canonical=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = ScalarExpr.const(other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(ScalarExpr.const(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.coerce(other)
            if not c:
                return _SE_ZERO
            return ScalarExpr({k: v * c for k, v in self._t.items()},
                              self.chart, _canonical=True)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        chart = _join_chart(self.chart, other.chart)
        if not self._t or not other._t:
            return _SE_ZERO
        acc: dict[TermKey, GaussRat] = {}
        for (m1, r1, a1), c1 in self._t.items():
            for (m2, r2, a2), c2 in other._t.items():
                key = (_mono_add(m1, m2), r1 + r2, a1 + a2)
                c = c1 * c2
                prev = acc.get(key)
                nc = c if prev is None else prev + c
                if nc:
                    acc[key] = nc
                elif prev is not None:
                    del acc[key]
        return ScalarExpr(acc, chart)

    __rmul__ = __mul__

    def mul_term(self, coeff, mono: Iterable[int] = _ZERO_MONO, rp: int = 0,
                 ap: int = 0, chart: int = CHART_NONE) -> "ScalarExpr":
        """Multiply by a single term without expanding r^2 in the factor.

        Useful for clean products like r^2 * (x_j / r^3) -> x_j / r: the
        reduction to canonical form still runs on the result, but the factor
        itself is never turned into x.x first.
        """
        c = GaussRat.coerce(coeff)
        if not c:
            return _SE_ZERO
        mono = tuple(mono)
        newchart = _join_chart(self.chart, chart if ap != 0 else CHART_NONE)
        acc = {}
        for (m, r, a), v in self._t.items():
            acc[(_mono_add(m, mono), r + rp, a + ap)] = v * c
        return ScalarExpr(acc, newchart)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on expressions")
        out = ScalarExpr.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ----- calculus -----------------------------------------------------

    def diff(self, i: int) -> "ScalarExpr":
        """Exact partial derivative with respect to x_i."""
        cached = self._dcache.get(i)
        if cached is not None:
            return cached
        s = self.chart if self.chart else CHART_A  # sign only matters if ap != 0
        acc: dict[TermKey, GaussRat] = {}

        def put(key, c):
            prev = acc.get(key)
            nc = c if prev is None else prev + c
            if nc:
                acc[key] = nc
            elif prev is not None:
                del acc[key]

        for (m, rp, ap), c in self._t.items():
            if m[i]:
                m2 = list(m)
                m2[i] -= 1
                put(((m2[0], m2[1], m2[2], m2[3], m2[4]), rp, ap), c * m[i])
            if rp:
                m2 = list(m)
                m2[i] += 1
                put(((m2[0], m2[1], m2[2], m2[3], m2[4]), rp - 2, ap), c * rp)
            if ap:
                if i == 0:
                    # d/dx0 (r + s*x0)^ap = s*ap*(r + s*x0)^ap / r
                    put((m, rp - 1, ap), c * (ap * s))
                else:
                    m2 = list(m)
                    m2[i] += 1
                    put(((m2[0], m2[1], m2[2], m2[3], m2[4]), rp - 1, ap - 1),
                        c * ap)
        out = ScalarExpr(acc, self.chart)
        self._dcache[i] = out
        return out

    def multi_diff(self, gamma: tuple[int, ...]) -> "ScalarExpr":
        """Iterated derivative d^gamma, cached per instance."""
        key = tuple(gamma)
        cached = self._dcache.get(key)
        if cached is not None:
            return cached
        out = self
        for i, n in enumerate(key):
            for _ in range(n):
                out = out.diff(i)
                if out.is_structural_zero():
                    break
        self._dcache[key] = out
        return out

    # ----- equality -----------------------------------------------------

    def is_zero(self) -> bool:
        """Exact zero test: clear denominators, reduce, compare with 0."""
        if not self._t:
            return True
        shift_r = max(0, -min(k[1] for k in self._t))
        shift_a = max(0, -min(k[2] for k in self._t))
        s = self.chart if self.chart else CHART_A
        poly: dict[tuple[Mono, int], GaussRat] = {}

        def put(mono, rp, c):
            key = (mono, rp)
            prev = poly.get(key)
            nc = c if prev is None else prev + c
            if nc:
                poly[key] = nc
            elif prev is not None:
                del poly[key]

        for (m, rp, ap), c in self._t.items():
            rp2 = rp + shift_r
            n = ap + shift_a  # >= 0: expand (r + s*x0)^n binomially
            for j in range(n + 1):
                m2 = list(m)
                m2[0] += j
                cc = c * (comb(n, j) * (s ** j))
                put((m2[0], m2[1], m2[2], m2[3], m2[4]), rp2 + n - j, cc)
        stack = [k for k in poly if k[1] >= 2]
        while stack:
            k = stack.pop()
            c = poly.pop(k, None)
            if not c:
                continue
            m, rp = k
            for i in range(5):
                m2 = list(m)
                m2[i] += 2
                nk = ((m2[0], m2[1], m2[2], m2[3], m2[4]), rp - 2)
                prev = poly.get(nk)
                nc = c if prev is None else prev + c
                if nc:
                    poly[nk] = nc
                    if nk[1] >= 2:
                        stack.append(nk)
                elif prev is not None:
                    del poly[nk]
        return not poly

    def equals(self, other) -> bool:
        """Mathematical equality (structural __eq__ is deliberately separate)."""
        if isinstance(other, (int, Fraction, GaussRat)):
            other = ScalarExpr.const(other)
        return (self - other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.chart == other.chart and self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.chart, frozenset(self._t.items())))
        return self._hash

    # ----- evaluation ---------------------------------------------------

    def evaluate(self, p: Point5):
        """Exact value (GaussRat) at an exact point with rational radius,
        complex otherwise."""
        if p.exact:
            r2 = p.r_squared()
            r = rational_sqrt(r2)
            if r is not None:
                return self._evaluate_exact(p.xs, r)
            return self._evaluate_float(tuple(float(v) for v in p.xs),
                                        float(r2) ** 0.5)
        return self._evaluate_float(p.xs, p.r_squared() ** 0.5)

    def _evaluate_exact(self, xs, r: Fraction):
        s = self.chart if self.chart else CHART_A
        axis = r + s * xs[0]
        total = GR_ZERO
        for (m, rp, ap), c in self._t.items():
            if (rp < 0 and r == 0) or (ap < 0 and axis == 0):
                raise SingularPoint(f"zero denominator at {tuple(xs)}")
            f = Fraction(1)
            for xi, mi in zip(xs, m):
                if mi:
                    f *= xi ** mi
            if rp:
                f *= r ** rp
            if ap:
                f *= axis ** ap
            total = total + c * f
        return total

    def _evaluate_float(self, xs, r: float) -> complex:
        s = self.chart if self.chart else CHART_A
        axis = r + s * xs[0]
        total = 0j
        for (m, rp, ap), c in self._t.items():
            if (rp < 0 and r == 0.0) or (ap < 0 and axis == 0.0):
                raise SingularPoint(f"zero denominator at {tuple(xs)}")
            f = 1.0
            for xi, mi in zip(xs, m):
                if mi:
                    f *= xi ** mi
            if rp:
                f *= r ** rp
            if ap:
                f *= axis ** ap
            total += c.to_complex() * f
        return total

    # ----- display ------------------------------------------------------

    def __repr__(self):
        if not self._t:
            return "0"
        s = self.chart if self.chart else CHART_A
        axis = "(r+x0)" if s == CHART_A else "(r-x0)"
        parts = []
        for (m, rp, ap) in sorted(self._t, reverse=True):
            c = self._t[(m, rp, ap)]
            factors = []
            for i, mi in enumerate(m):
                if mi == 1:
                    factors.append(f"x{i}")
                elif mi > 1:
                    factors.append(f"x{i}^{mi}")
            if rp == 1:
                factors.append("r")
            elif rp:
                factors.append(f"r^{rp}")
            if ap == 1:
                factors.append(axis)
            elif ap:
                factors.append(f"{axis}^{ap}")
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c!r})*{body}")
        return " + ".join(parts)


_SE_ZERO = ScalarExpr({}, CHART_NONE, _canonical=True)


# Module-level forms of the operations, matching the verb-style interface.

def evaluate(e: ScalarExpr, p: Point5):
    return e.evaluate(p)


def equals(a: ScalarExpr, b: ScalarExpr) -> bool:
    return a.equals(b)


X = tuple(ScalarExpr.coord(i) for i in range(5))
R = ScalarExpr.rpow(1)
