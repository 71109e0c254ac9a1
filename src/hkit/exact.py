"""Exact scalar algebra on R^5 with a square-root radius adjoined.

Expressions live in Q(i)[x0..x4, r] / (r^2 - x.x), localized at r and at one
axis factor, either (r + x0) or (r - x0).  A term is stored as

    coeff * x0^m0 ... x4^m4 * r^rp * (r + s*x0)^ap

with an exact Gaussian-rational coeff, monomial exponents >= 0, and rp and
ap any integers (a negative power is a denominator factor); every exponent
must lie in [-EXP_LIMIT, EXP_LIMIT] when a kernel packs it.  s = +1 or -1 is
the chart sign; the two denominator monoids never mix inside a single
expression.

Terms are kept as the ring operations produce them: r^k stays r^k.  Only
the zero test ``ScalarExpr.is_zero`` clears denominators and reduces modulo
the radius relation.  That is sound because r^2 - x.x is irreducible, so the
quotient is an integral domain in which r and (r +- x0) are nonzero divisors.

The zero test and operator composition work on Gaussian-integer numerators
over one common denominator, with every term key packed into one int (see
``pack_key``), so no GaussRat is built per intermediate term.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, isqrt, lcm
from typing import Iterable, Iterator

from .errors import ChartMismatch, ExponentRange, SingularPoint

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


# ----- packed term keys -----------------------------------------------------
#
# pack_key maps (m0..m4, rp, ap) to sum_j f_j * 2^(8j), one signed 8-bit
# field per exponent.  The map is linear, so the key of a product of two
# terms is the sum of their packed keys.  Every exponent that enters a
# kernel must lie in [-EXP_LIMIT, EXP_LIMIT]: a sum of two such fields stays
# inside [-128, 127], so no field carries into its neighbour and unpacking
# is exact.  An exponent outside the range raises ExponentRange; it is never
# allowed to collide with another key.

EXP_LIMIT = 63

# Unpacked keys, shared by every expression built from packed keys.
_KEY_OF: dict[int, TermKey] = {}


def check_exponents(keys) -> tuple[int, int, int]:
    """Lowest monomial, r and axis exponents among ``keys`` (not empty).

    Raises ExponentRange if any exponent lies outside [-EXP_LIMIT, EXP_LIMIT].
    """
    monos, rps, aps = zip(*keys)
    lo = (min(map(min, monos)), min(rps), min(aps))
    if (min(lo) < -EXP_LIMIT or max(map(max, monos)) > EXP_LIMIT
            or max(rps) > EXP_LIMIT or max(aps) > EXP_LIMIT):
        bad = next(k for k in keys
                   if any(abs(f) > EXP_LIMIT for f in (*k[0], k[1], k[2])))
        raise ExponentRange(
            f"term {bad} has an exponent outside [-{EXP_LIMIT}, {EXP_LIMIT}]")
    return lo


def pack_key(key: TermKey) -> int:
    """One int for (m0..m4, rp, ap); the caller has checked the exponents."""
    m, rp, ap = key
    return (m[0] + (m[1] << 8) + (m[2] << 16) + (m[3] << 24) + (m[4] << 32)
            + (rp << 40) + (ap << 48))


def unpack_key(p: int) -> TermKey:
    """Inverse of pack_key on keys whose fields lie in [-128, 127]."""
    key = _KEY_OF.get(p)
    if key is None:
        q = p
        f = []
        for _ in range(6):
            v = ((q + 128) & 255) - 128
            f.append(v)
            q = (q - v) >> 8
        key = _KEY_OF[p] = ((f[0], f[1], f[2], f[3], f[4]), f[5], q)
    return key


# is_zero's keys: (m0..m4, rp) in unsigned 10-bit fields, rp on top.
_Z_RSHIFT = 50
_Z_XALL = sum(1 << (10 * i) for i in range(5))
_Z_X0_NOT_R = 1 - (1 << _Z_RSHIFT)
_Z_R2 = 2 << _Z_RSHIFT
_Z_R2_TO_X2 = tuple((2 << (10 * i)) - _Z_R2 for i in range(5))


class ScalarExpr:
    """Immutable element of the localized radius ring on one chart.

    The constructor takes ownership of ``terms`` and stores them as given,
    so callers pass a dict built for this expression, without zero
    coefficients, and do not touch it afterwards.  No relation is applied:
    one value may be stored as different term sets, and only ``is_zero``
    (hence ``equals``) decides equality in the ring.
    """

    __slots__ = ("_t", "chart", "_hash", "_dcache", "_iv")

    def __init__(self, terms: dict[TermKey, GaussRat], chart: int = CHART_NONE):
        if not any(k[2] for k in terms):
            chart = CHART_NONE
        elif chart == CHART_NONE:
            raise ChartMismatch("axis factors present but no chart given")
        self._t = terms
        self.chart = chart
        self._hash = None
        self._dcache = {}
        self._iv = None

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ScalarExpr":
        return _SE_ZERO

    @staticmethod
    def const(c, chart: int = CHART_NONE) -> "ScalarExpr":
        c = GaussRat.coerce(c)
        if not c:
            return _SE_ZERO
        return ScalarExpr({(_ZERO_MONO, 0, 0): c}, CHART_NONE)

    @staticmethod
    def coord(i: int) -> "ScalarExpr":
        mono = [0] * 5
        mono[i] = 1
        return ScalarExpr({(tuple(mono), 0, 0): GR_ONE}, CHART_NONE)

    @staticmethod
    def rpow(k: int) -> "ScalarExpr":
        """r^k as one term, for any integer k in [-EXP_LIMIT, EXP_LIMIT]."""
        return ScalarExpr({(_ZERO_MONO, k, 0): GR_ONE}, CHART_NONE)

    @staticmethod
    def axis_pow(q: int, chart: int = CHART_A) -> "ScalarExpr":
        """(r + s*x0)^q on the requested chart, s = chart sign."""
        if q == 0:
            return ScalarExpr.const(1)
        return ScalarExpr({(_ZERO_MONO, 0, q): GR_ONE}, chart)

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

    def int_view(self) -> tuple[int, list[tuple[int, int, int]]]:
        """(D, [(pack_key(key), re, im), ...]), cached: the terms in order,
        each coefficient as the Gaussian integer re + i*im over the common
        denominator D of all coefficients."""
        iv = self._iv
        if iv is None:
            t = self._t
            if t:
                check_exponents(t)
            d = lcm(*(c.d for c in t.values()))
            iv = self._iv = (d, [(pack_key(k), c.a * (d // c.d),
                                  c.b * (d // c.d)) for k, c in t.items()])
        return iv

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
        return ScalarExpr({k: -c for k, c in self._t.items()}, self.chart)

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
                              self.chart)
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
        """Exact zero test on Gaussian-integer numerators and packed keys.

        Clears denominators once: each coefficient becomes a Gaussian-integer
        numerator (re, im) over the common denominator, and every term is
        multiplied by x^k r^k' (r + s*x0)^k'' so that no exponent is
        negative; x_i, r and the axis factor are nonzero divisors, so this
        keeps zero and nonzero apart.  The axis power is then expanded
        binomially and r^2 is rewritten to x.x until every r-exponent is 0
        or 1, all on keys (m0..m4, rp) packed into one int with unsigned
        10-bit fields (an r^2 -> x.x step is one integer addition).  The
        monomials x^m r^(0 or 1) are a basis of the quotient, so the
        expression is zero exactly when every numerator left is zero.

        Keys are rewritten in descending order from a max-heap.  rp is the
        top field, so every key a rewrite produces is smaller than the key
        it came from, and each key is rewritten once, after everything that
        feeds it.

        Exponents must lie in [-EXP_LIMIT, EXP_LIMIT] (ExponentRange
        otherwise), so after the shift every m_i, rp and axis power n lies
        in [0, 2 * EXP_LIMIT].  The expansion moves j units from the r field
        to x0 and a rewrite moves 2 units from r to one x_i, so neither
        changes the sum of a key's fields, and no field ever exceeds that
        sum's starting value: at most 7 * 2 * EXP_LIMIT = 882 < 1024.
        """
        terms = self._t
        if not terms:
            return True
        lo_m, lo_r, lo_a = check_exponents(terms)
        base_shift = max(0, -lo_m) * _Z_XALL + (max(0, -lo_r) << _Z_RSHIFT)
        shift_a = max(0, -lo_a)
        s = self.chart if self.chart else CHART_A
        rows: dict[int, list[int]] = {}
        d = lcm(*(c.d for c in terms.values()))
        poly: dict[int, list[int]] = {}
        get = poly.get
        for (m, rp, ap), c in terms.items():
            f = d // c.d
            re = c.a * f
            im = c.b * f
            n = ap + shift_a  # >= 0: expand (r + s*x0)^n binomially
            row = rows.get(n)
            if row is None:
                row = rows[n] = [comb(n, j) * s ** j for j in range(n + 1)]
            k = (base_shift + m[0] + (m[1] << 10) + (m[2] << 20)
                 + (m[3] << 30) + (m[4] << 40) + ((rp + n) << _Z_RSHIFT))
            for w in row:
                e = get(k)
                if e is None:
                    poly[k] = [re * w, im * w]
                else:
                    e[0] += re * w
                    e[1] += im * w
                k += _Z_X0_NOT_R
        # r^2 -> x0^2 + ... + x4^2 on every key with rp >= 2 (rp is the top
        # field, so that is a plain comparison), largest key first; the heap
        # holds negated keys
        heap = [-k for k in poly if k >= _Z_R2]
        heapify(heap)
        while heap:
            k = -heappop(heap)
            re, im = poly.pop(k)
            if not (re or im):
                continue
            for u in _Z_R2_TO_X2:
                nk = k + u
                e = get(nk)
                if e is None:
                    poly[nk] = [re, im]
                    if nk >= _Z_R2:
                        heappush(heap, -nk)
                else:
                    e[0] += re
                    e[1] += im
        return not any(re or im for re, im in poly.values())

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


_SE_ZERO = ScalarExpr({}, CHART_NONE)


X = tuple(ScalarExpr.coord(i) for i in range(5))
R = ScalarExpr.rpow(1)
