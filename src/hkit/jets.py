"""Truncated Taylor jets of ring elements at a point.

Evaluating every derivative (d^gamma e)(p) for |gamma| <= n one at a time
differentiates a large expression symbolically once per signature.  A jet
does the work in one pass: each term x^m r^k (r + s x0)^a is a product of
atom jets (binomial series for coordinate powers, a square-root series
for r built on the radius-squared polynomial, and a geometric series for
the axis factor), multiplied in truncated polynomial arithmetic.  The
Taylor coefficients then hand back all derivatives at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, sqrt

import numpy as np

from .errors import SingularPoint
from .exact import Point5, ScalarExpr


def _multi_indices(order: int, nvars: int = 5) -> np.ndarray:
    """Every multi-index of total degree <= order, sorted by (degree, index)."""
    grid = np.indices((order + 1,) * nvars).reshape(nvars, -1).T
    grid = grid[grid.sum(axis=1) <= order]
    keys = [grid[:, k] for k in reversed(range(nvars))] + [grid.sum(axis=1)]
    return grid[np.lexsort(keys)]


class _JetSpace:
    """Index bookkeeping and multiplication table for one truncation order.

    Jets are sorted by degree, so truncating a jet to a lower order keeps a
    prefix, and the partners b of a with |a| + |b| <= order are the first
    entries up to degree order - |a|.  A multi-index g is encoded as
    sum g_i (order+1)^i; no component exceeds the order, so the code of a
    sum of two indices is the sum of their codes.
    """

    _cache: dict[int, "_JetSpace"] = {}

    def __init__(self, order: int):
        self.order = order
        grid = _multi_indices(order)
        self.grid = grid
        self.indices = [tuple(g) for g in grid.tolist()]
        self.pos = {g: i for i, g in enumerate(self.indices)}
        self.dim = len(self.indices)
        self._base = (order + 1) ** np.arange(5)
        code = (grid * self._base).sum(axis=1)
        self._lookup = np.full((order + 1) ** 5, self.dim)  # dim: not in space
        self._lookup[code] = np.arange(self.dim)
        deg = grid.sum(axis=1)
        up_to = np.searchsorted(deg, np.arange(order + 1), side="right")
        counts = up_to[order - deg]
        self.ia = np.repeat(np.arange(self.dim), counts)
        self.ib = np.arange(len(self.ia)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        self.ic = self._lookup[code[self.ia] + code[self.ib]]
        fact = np.array([factorial(k) for k in range(order + 1)], dtype=float)
        self.fact = fact[grid].prod(axis=1)

    def locate(self, grid: np.ndarray) -> np.ndarray:
        """Positions of the rows of an array of multi-indices in this space."""
        return self._lookup[(grid * self._base).sum(axis=1)]

    @staticmethod
    def get(order: int) -> "_JetSpace":
        sp = _JetSpace._cache.get(order)
        if sp is None:
            sp = _JetSpace(order)
            _JetSpace._cache[order] = sp
        return sp

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = a[self.ia] * b[self.ib]
        out = np.bincount(self.ic, weights=prod.real, minlength=self.dim) \
            .astype(complex)
        out += 1j * np.bincount(self.ic, weights=prod.imag,
                                minlength=self.dim)
        return out

    def const(self, c: complex) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        out[0] = c
        return out


def _binom_frac(q: Fraction, n: int) -> float:
    out = Fraction(1)
    for k in range(n):
        out *= (q - k) / (k + 1)
    return float(out)


class PointJet:
    """All derivatives of ring elements at one point, up to a fixed order."""

    def __init__(self, p: Point5, order: int):
        self.space = _JetSpace.get(order)
        self.order = order
        xs = tuple(float(v) for v in p.xs)
        self.xs = xs
        r2 = sum(v * v for v in xs)
        if r2 == 0.0:
            raise SingularPoint("jet at the origin")
        self.r0 = sqrt(r2)
        sp = self.space
        # radius-squared jet, exact quadratic
        s_jet = sp.const(r2)
        for i in range(5):
            gi = [0] * 5
            gi[i] = 1
            s_jet[sp.pos[tuple(gi)]] = 2.0 * xs[i]
            gi[i] = 2
            if order >= 2:
                s_jet[sp.pos[tuple(gi)]] = 1.0
        w = s_jet / r2
        w[0] = 0.0
        self._r = self._series(w, Fraction(1, 2)) * self.r0
        self._rinv = self._series(w, Fraction(-1, 2)) / self.r0
        self._pow_r: dict[int, np.ndarray] = {0: sp.const(1.0)}
        self._axis: dict[int, dict[int, np.ndarray]] = {}
        self._pow_x: dict[tuple[int, int], np.ndarray] = {}
        self._term_cache: dict = {}

    def _series(self, w: np.ndarray, q: Fraction) -> np.ndarray:
        """(1 + w)^q for a jet w with zero constant part."""
        sp = self.space
        out = sp.const(1.0)
        wp = sp.const(1.0)
        for n in range(1, self.order + 1):
            wp = sp.mul(wp, w)
            out = out + _binom_frac(q, n) * wp
        return out

    def rpow(self, k: int) -> np.ndarray:
        got = self._pow_r.get(k)
        if got is None:
            base = self._r if k > 0 else self._rinv
            step = 1 if k > 0 else -1
            prev = self.rpow(k - step)
            got = self.space.mul(prev, base)
            self._pow_r[k] = got
        return got

    def axis_pow(self, a: int, s: int) -> np.ndarray:
        cache = self._axis.setdefault(s, {})
        got = cache.get(a)
        if got is None:
            if a == 0:
                got = self.space.const(1.0)
            else:
                u0 = self.r0 + s * self.xs[0]
                if abs(u0) < 1e-12:
                    raise SingularPoint("jet on the chart axis")
                sp = self.space
                u = self._r.copy()
                u[0] += s * self.xs[0]
                g0 = [0] * 5
                g0[0] = 1
                u[sp.pos[tuple(g0)]] += s
                v = u / u0
                v[0] = 0.0
                base = self._series(v, Fraction(1)) * u0 if a > 0 else \
                    self._series(v, Fraction(-1)) / u0
                got = sp.const(1.0)
                for _ in range(abs(a)):
                    got = sp.mul(got, base)
            cache[a] = got
        return got

    def xpow(self, i: int, m: int) -> np.ndarray:
        key = (i, m)
        got = self._pow_x.get(key)
        if got is None:
            sp = self.space
            got = np.zeros(sp.dim, dtype=complex)
            for j in range(min(m, self.order) + 1):
                gi = [0] * 5
                gi[i] = j
                got[sp.pos[tuple(gi)]] = comb(m, j) * self.xs[i] ** (m - j)
            self._pow_x[key] = got
        return got

    def term(self, mono, rp: int, ap: int, s: int) -> np.ndarray:
        key = (mono, rp, ap, s)
        got = self._term_cache.get(key)
        if got is None:
            got = self.rpow(rp) if rp else self.space.const(1.0)
            if ap:
                got = self.space.mul(got, self.axis_pow(ap, s))
            for i, m in enumerate(mono):
                if m:
                    got = self.space.mul(got, self.xpow(i, m))
            self._term_cache[key] = got
        return got

    def expr(self, e: ScalarExpr) -> np.ndarray:
        out = np.zeros(self.space.dim, dtype=complex)
        s = e.chart
        for (mono, rp, ap), c in e._t.items():
            out += c.to_complex() * self.term(mono, rp, ap, s)
        return out

    def derivatives(self, e: ScalarExpr) -> dict[tuple, complex]:
        """{gamma: (d^gamma e)(p)} for every gamma within the order."""
        jet = self.expr(e) * self.space.fact
        return {g: jet[i] for i, g in enumerate(self.space.indices)}


_SHIFT_CACHE: dict = {}


def shift_table(hi: _JetSpace, lo: _JetSpace, d: tuple):
    """Index/scale arrays mapping a jet of f at high order to the jet of
    d^d f at low order: coefficient gamma picks up (gamma+d)!/gamma!."""
    key = (hi.order, lo.order, d)
    got = _SHIFT_CACHE.get(key)
    if got is None:
        src = hi.locate(lo.grid + d)
        scale = hi.fact[src] / lo.fact
        got = (src, scale)
        _SHIFT_CACHE[key] = got
    return got
