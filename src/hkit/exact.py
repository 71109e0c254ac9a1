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
the zero test, ``nonzero_segments``, clears denominators and reduces modulo
the radius relation.  That is sound because r^2 - x.x is irreducible, so the
quotient is an integral domain in which r and (r +- x0) are nonzero divisors.

The zero test, the derivative and operator composition work on term
tables: flat numpy arrays of packed term keys (see ``pack_key``) and
Gaussian-integer numerators over one common denominator, many expressions
("segments") at once, so no GaussRat is built per intermediate term.
``ScalarExpr.diff`` and ``ScalarExpr.is_zero`` are the one-segment cases
of ``diff_terms`` and ``nonzero_segments``.  Numerators are int64 where an
l1 bound proves every value a kernel forms stays below 2^62, and Python
ints otherwise (see "term tables" below).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm
from typing import Iterable, Iterator

import numpy as np

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


# ----- term tables ----------------------------------------------------------
#
# A term table holds the terms of one or more expressions ("segments") as
# flat numpy arrays: seg, the segment of each term, in non-decreasing order;
# tk, its packed key; and re, im, its Gaussian-integer numerator over one
# denominator shared by the table, which the kernels never need.  The
# numerators are int64 when a bound proves that every value a kernel forms
# from them stays below 2^62 in magnitude, and Python ints (dtype=object)
# otherwise; both run the same numpy calls.  Each bound is an l1 bound:
# the sum of |re| + |im| over everything that can flow into one segment,
# times the largest factor a kernel step applies.  It is evaluated in
# float64, whose relative error on sums of fewer than 10^7 such products is
# below 1e-8, far inside the factor 2 between 2^62 and the int64 limit 2^63.

_INT64_SAFE = float(1 << 62)
_ER = 1 << 40  # one unit of the packed r exponent
_EA = 1 << 48  # one unit of the packed axis exponent
# Added to a packed key whose fields lie in [-128, 127], _BIAS makes every
# field f + 128 in [0, 255], with no borrow between fields.
_BIAS = sum(128 << (8 * j) for j in range(7))


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as Python ints if one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def widen(bound: float, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays unchanged if all are int64 and bound < 2^62, else as
    Python ints."""
    if bound < _INT64_SAFE and all(a.dtype != object for a in arrays):
        return arrays
    return tuple(a.astype(object) for a in arrays)


def l1_norms(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|re| + |im| per term, as float64."""
    return np.abs(re).astype(float) + np.abs(im).astype(float)


def ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) over sum(counts) items: item k is number offset[k]
    of group owner[k], groups in order, each counts[g] long."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def key_fields(tk: np.ndarray) -> np.ndarray:
    """The fields m0..m4, rp, ap of packed keys whose fields lie in
    [-128, 127], as an (n, 7) int64 array."""
    b = (tk + _BIAS).astype("<i8", copy=False).view(np.uint8)
    return b.reshape(-1, 8)[:, :7].astype(np.int64) - 128


def checked_fields(tk: np.ndarray) -> np.ndarray:
    """key_fields, raising ExponentRange if one lies outside
    [-EXP_LIMIT, EXP_LIMIT]."""
    f = key_fields(tk)
    if f.size and np.abs(f).max() > EXP_LIMIT:
        k = int(np.flatnonzero((np.abs(f) > EXP_LIMIT).any(axis=1))[0])
        raise ExponentRange(f"term {unpack_key(int(tk[k]))} has an exponent "
                            f"outside [-{EXP_LIMIT}, {EXP_LIMIT}]")
    return f


def run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a begins."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))


def pair_key(seg: np.ndarray, low: np.ndarray) -> np.ndarray:
    """One int64 per (seg, low) pair, ordered by seg first, for seg >= 0:
    low less its minimum, which keeps distinct lows apart, below seg
    shifted past it, or low's rank among the distinct lows where that
    would not fit in 62 bits."""
    if not seg.size:
        return seg
    lo = int(low.min())
    bits = (int(low.max()) - lo).bit_length()
    if int(seg.max()) >> (62 - bits):
        low = np.unique(low, return_inverse=True)[1]
        lo, bits = 0, int(low.max()).bit_length()
    return (seg << bits) | (low - lo)


def merge_terms(key, re, im, seg=None, order=None, pos=None, drop=True):
    """Sum the terms of equal key, and drop the zero sums if ``drop``.

    Returns (idx, re, im, first) per sum: idx the position in the input of
    one of its terms, first the least ``pos`` of its terms, their positions
    in the input if pos is None.  The sums come sorted by key if ``order``
    is None.  Else key must order terms by their segment ``seg`` first
    (see ``pair_key``), and each segment's sums come ordered by first:
    with the segments ascending if ``order`` is "seg", and ordered by their
    least first, over kept and dropped sums, if it is "first".
    """
    if not key.size:
        none = np.zeros(0, dtype=np.intp)
        return none, re, im, none
    perm = np.argsort(key)
    starts = run_starts(key[perm])
    re = np.add.reduceat(re[perm], starts)
    im = np.add.reduceat(im[perm], starts)
    idx = perm[starts]
    first = np.minimum.reduceat(perm if pos is None else pos[perm], starts)
    keep = (np.flatnonzero((re != 0) | (im != 0)) if drop
            else np.arange(starts.size))
    if order is not None:
        rank = seg[idx]
        if order == "first":
            gs = run_starts(rank)
            rank = np.repeat(np.minimum.reduceat(first, gs),
                             np.diff(np.append(gs, rank.size)))
        keep = keep[np.argsort(rank[keep] * (int(first.max()) + 1)
                               + first[keep])]
    return idx[keep], re[keep], im[keep], first[keep]


def diff_terms(seg, tk, re, im, sign, axis):
    """d/dx_axis of every segment of a term table: (seg, tk, re, im), each
    segment's terms in first-occurrence order.  ``sign`` is the chart sign
    s and ``axis`` the axis i, both per term, so one call can take
    derivatives along different axes in different segments.

    d/dx_i is linear on terms, and a term x^m r^k (r + s x0)^a gives at most
    three: m_i x^(m - e_i) r^k (r + s x0)^a, k x^(m + e_i) r^(k - 2) (r + s
    x0)^a, and a s x^m r^(k - 1) (r + s x0)^a if i = 0, else a x^(m + e_i)
    r^(k - 1) (r + s x0)^(a - 1).  Each is a fixed shift of the packed key
    with an integer factor, so the derivative is one gather and one merge.
    Exponents must lie in [-EXP_LIMIT, EXP_LIMIT] (ExponentRange
    otherwise), so the new keys' fields stay in [-128, 127]; the l1 norm of
    a segment's terms times their factors bounds every value its
    derivative forms.
    """
    if not tk.size:
        return seg, tk, re, im
    f = checked_fields(tk)
    ei = 1 << (8 * axis)
    on0 = axis == 0
    fac = np.stack([f[np.arange(tk.size), axis], f[:, 5],
                    np.where(on0, f[:, 6] * sign, f[:, 6])], axis=1)
    bound = np.bincount(seg, l1_norms(re, im) * np.abs(fac).sum(axis=1)).max()
    step = np.stack([-ei, ei - 2 * _ER, np.where(on0, -_ER, ei - _ER - _EA)],
                    axis=1)
    hit = np.flatnonzero(fac)  # row-major: term by term, in that order
    src, fac = hit // 3, fac.ravel()[hit]
    seg, tk = seg[src], tk[src] + step.ravel()[hit]
    re, im, fac = widen(bound, re, im, fac)
    idx, re, im, _ = merge_terms(pair_key(seg, tk), re[src] * fac,
                                 im[src] * fac, seg, "seg")
    return seg[idx], tk[idx], re, im


@lru_cache(maxsize=None)
def _pascal(n: int) -> np.ndarray:
    """Binomial coefficients C(k, j), k, j <= n: int64 up to n = 61, where
    every one is below 2^62, and Python ints above."""
    rows = [[comb(k, j) for j in range(n + 1)] for k in range(n + 1)]
    return np.array(rows, dtype=np.int64 if n <= 61 else object)


def nonzero_segments(seg, tk, re, im, sign) -> np.ndarray:
    """The segments of a term table that are not zero in the ring, in
    ascending order; seg must hold each segment's terms together.

    Clears denominators once per segment: every term of a segment is
    multiplied by x^k r^k' (r + s x0)^k'' so that no exponent is negative;
    x_i, r and the axis factor are nonzero divisors, so this keeps zero and
    nonzero apart.  The axis power is then expanded binomially and r^2 is
    rewritten to x.x until every r-exponent is 0 or 1, for all segments at
    once, on keys (m0..m4, rp) packed into one int with unsigned w-bit
    fields, rp on top, so that an r^2 -> x.x step is one integer addition.
    The monomials x^m r^(0 or 1) are a basis of the quotient, so a segment
    is zero exactly when every numerator left in it is zero.  ``sign`` is
    the chart sign s per term.

    The rewrite goes by levels: each round rewrites the terms of the two
    highest r-exponents, which nothing left can feed, and merges.

    Exponents must lie in [-EXP_LIMIT, EXP_LIMIT] (ExponentRange
    otherwise), so after the shift every m_i, rp and axis power n lies in
    [0, 2 * EXP_LIMIT].  The expansion moves j units from the r field to
    x0 and a rewrite moves 2 units from r to one x_i, so neither changes
    the sum of a key's fields, and no field ever exceeds that sum's
    starting value S <= 7 * 2 * EXP_LIMIT = 882; w is the bit length of S,
    at most 10, so six fields fit in 60 bits.

    The expansion multiplies a term's numerator by C(n, j), which sum to
    2^n, and each of the at most rp'/2 rewrites of rp' = rp + n copies it
    into five terms, so 2^n 5^(rp'/2) times its l1 norm bounds all that it
    contributes; the sum of that over a segment bounds every value the
    test forms there.
    """
    if not tk.size:
        return seg
    f = checked_fields(tk)
    starts = run_starts(seg)
    lo = np.minimum.reduceat(
        np.column_stack([f[:, :5].min(axis=1), f[:, 5], f[:, 6]]), starts)
    sh = np.repeat(np.maximum(-lo, 0), np.diff(np.append(starts, seg.size)),
                   axis=0)
    m = f[:, :5] + sh[:, :1]
    n = f[:, 6] + sh[:, 2]
    zr = f[:, 5] + sh[:, 1] + n
    w = int((m.sum(axis=1) + zr).max()).bit_length()
    bound = np.bincount(seg, l1_norms(re, im) * np.exp2(n)
                        * 5.0 ** (zr // 2)).max()
    # (r + s x0)^n = sum_j C(n, j) s^j x0^j r^(n - j)
    owner, j = ragged(n + 1)
    coef = _pascal(int(n.max()))[n[owner], j]
    coef = np.where((sign[owner] < 0) & (j % 2 == 1), -coef, coef)
    re, im, coef = widen(bound, re, im, coef)
    z = (m @ (1 << (w * np.arange(5))))[owner] + j + ((zr[owner] - j) << (5 * w))
    seg, re, im = seg[owner], re[owner] * coef, im[owner] * coef
    steps = np.array([(2 << (w * k)) - (2 << (5 * w)) for k in range(5)])
    while True:
        idx, re, im, _ = merge_terms(pair_key(seg, z), re, im)
        seg, z = seg[idx], z[idx]
        r = z >> (5 * w)
        top = int(r.max()) if r.size else 0
        if top < 2:
            return seg[run_starts(seg)] if seg.size else seg
        hot, cold = r >= top - 1, r < top - 1
        seg = np.concatenate([seg[cold], np.repeat(seg[hot], 5)])
        z = np.concatenate([z[cold], (z[hot][:, None] + steps).ravel()])
        re = np.concatenate([re[cold], np.repeat(re[hot], 5)])
        im = np.concatenate([im[cold], np.repeat(im[hot], 5)])


class ScalarExpr:
    """Immutable element of the localized radius ring on one chart.

    The constructor takes ownership of ``terms`` and stores them as given,
    so callers pass a dict built for this expression, without zero
    coefficients, and do not touch it afterwards.  No relation is applied:
    one value may be stored as different term sets, and only ``is_zero``
    (hence ``equals``) decides equality in the ring.
    """

    __slots__ = ("_t", "chart", "_hash", "_dcache")

    def __init__(self, terms: dict[TermKey, GaussRat], chart: int = CHART_NONE):
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

    def arrays(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(D, tk, re, im): the terms in order as a one-segment term table,
        packed keys and Gaussian-integer numerators over the common
        denominator D of all coefficients.  Raises ExponentRange if an
        exponent lies outside [-EXP_LIMIT, EXP_LIMIT]."""
        t = self._t
        if t:
            check_exponents(t)
        d = lcm(*(c.d for c in t.values()))
        return (d, np.array([pack_key(k) for k in t], dtype=np.int64),
                int_array([c.a * (d // c.d) for c in t.values()]),
                int_array([c.b * (d // c.d) for c in t.values()]))

    @staticmethod
    def from_arrays(den: int, tk, re, im, chart: int) -> "ScalarExpr":
        """The expression of a one-segment term table over denominator den."""
        make = GaussRat._make
        return ScalarExpr({unpack_key(k): make(a, b, den) for k, a, b in
                           zip(tk.tolist(), re.tolist(), im.tolist())}, chart)

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
        """Exact partial derivative with respect to x_i (see ``diff_terms``)."""
        cached = self._dcache.get(i)
        if cached is not None:
            return cached
        d, tk, re, im = self.arrays()
        s = self.chart if self.chart else CHART_A  # sign only matters if ap != 0
        zeros = np.zeros(tk.size, dtype=np.int64)
        _, tk, re, im = diff_terms(zeros, tk, re, im, zeros + s, zeros + i)
        out = ScalarExpr.from_arrays(d, tk, re, im, self.chart)
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
        """Exact zero test: the one-segment case of ``nonzero_segments``."""
        _, tk, re, im = self.arrays()
        s = self.chart if self.chart else CHART_A
        seg = np.zeros(tk.size, dtype=np.int64)
        return not nonzero_segments(seg, tk, re, im, seg + s).size

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
                return self._evaluate(p.xs, r, Fraction, lambda c: c)
            xs, r = tuple(float(v) for v in p.xs), float(r2) ** 0.5
        else:
            xs, r = p.xs, p.r_squared() ** 0.5
        return self._evaluate(xs, r, float, GaussRat.to_complex)

    def _evaluate(self, xs, r, real, coeff):
        """Sum of coeff(c) x^m r^rp axis^ap, the factors built in type real:
        Fraction with coeff the identity, or float with GaussRat.to_complex."""
        s = self.chart if self.chart else CHART_A
        axis = r + s * xs[0]
        total = coeff(GR_ZERO)
        for (m, rp, ap), c in self._t.items():
            if (rp < 0 and r == 0) or (ap < 0 and axis == 0):
                raise SingularPoint(f"zero denominator at {tuple(xs)}")
            f = real(1)
            for xi, mi in zip(xs, m):
                if mi:
                    f *= xi ** mi
            if rp:
                f *= r ** rp
            if ap:
                f *= axis ** ap
            total = total + coeff(c) * f
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
