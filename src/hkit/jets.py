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
from functools import cached_property
from math import comb, factorial, sqrt

import numpy as np

from .errors import SingularPoint


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

    The (ia, ib) pairs run over a by degree k, and for each a of degree k
    over the first up_to[order - k] entries b.  So the degree-k rows of a
    stack, times those leading entries of another, list the products of
    those pairs in order: ``blocks`` holds (start, stop, width) per degree.
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
        self._code = (grid * self._base).sum(axis=1)
        self._deg = grid.sum(axis=1)
        self._lookup = np.full((order + 1) ** 5, self.dim)  # dim: not in space
        self._lookup[self._code] = np.arange(self.dim)
        fact = np.array([factorial(k) for k in range(order + 1)], dtype=float)
        self.fact = fact[grid].prod(axis=1)

    # The product table is made on first use: orders whose jets are only
    # located and shifted (`shift_table`) never multiply.

    @cached_property
    def _up_to(self) -> np.ndarray:
        """The number of entries of degree at most k, for each k."""
        return np.searchsorted(self._deg, np.arange(self.order + 1), side="right")

    @cached_property
    def ia(self) -> np.ndarray:
        return np.repeat(np.arange(self.dim), self._up_to[self.order - self._deg])

    @cached_property
    def ib(self) -> np.ndarray:
        return np.arange(self.ia.size) - np.searchsorted(self.ia, self.ia)

    @cached_property
    def ic(self) -> np.ndarray:
        return self._lookup[self._code[self.ia] + self._code[self.ib]]

    @cached_property
    def blocks(self) -> list[tuple[int, int, int]]:
        start = np.concatenate([[0], self._up_to[:-1]])
        return [(int(start[k]), int(self._up_to[k]), int(self._up_to[self.order - k]))
                for k in range(self.order + 1)]

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
        """The truncated product of two jets: ``stack_mul`` at S = J = 1."""
        return self.stack_mul(a[None, :, None], b[None])[0]

    @cached_property
    def _ic2(self) -> np.ndarray:
        """ic for a complex product viewed as interleaved (real, imag)
        floats: bins 2 c and 2 c + 1 of a float view of the result."""
        return np.stack([2 * self.ic, 2 * self.ic + 1], axis=1).ravel()

    def stack_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_j a[s, :, j] * b[j] in truncated jet arithmetic, for each s.

        a has shape (S, dim, J), one jet per column, and b shape (J, dim).
        Degree block k of a meets the leading entries of b in one matmul,
        and the blocks, flattened in order, are the products of the (ia, ib)
        pairs, each summed over j; they are binned on ic.  For large J the
        matmuls do the work of gathering a[s][:, ia] * b[:, ib] at a
        fraction of its cost.  At J = 1 (``mul``) real-valued jets give
        that gathered product bit for bit; complex ones can differ from it
        in the last bit, as BLAS forms complex products its own way.
        """
        n = a.shape[0]
        blocks = []
        for i, j, w in self.blocks:
            # Every product stays matrix-matrix: numpy hands one with a
            # single row or column to gemv, which OpenBLAS runs threaded
            # from a few thousand entries on, and its worker thread then
            # spins on a core of its own for a while after each call.
            if j - i == 1:
                blocks.append(a[:, i] @ b[:, :w])
            else:
                blocks.append((a[:, i:j] @ b[:, :max(w, 2)])[..., :w]
                              .reshape(n, -1))
        prod = np.concatenate(blocks, axis=1)
        out = np.empty((n, 2 * self.dim))
        for s in range(n):
            out[s] = np.bincount(self._ic2, prod[s].view(float), 2 * self.dim)
        return out.view(complex)

    def const(self, c: complex) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        out[0] = c
        return out


# The largest pair-product array `PointJet.terms` makes at once.
_STACK_BYTES = 1 << 20


def _binom_frac(q: Fraction, n: int) -> float:
    out = Fraction(1)
    for k in range(n):
        out *= (q - k) / (k + 1)
    return float(out)


class PointJet:
    """All derivatives of ring elements at one point, given by its five
    coordinates, up to a fixed order."""

    def __init__(self, point, order: int):
        self.space = _JetSpace.get(order)
        self.order = order
        xs = tuple(float(v) for v in point)
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
            if order >= 1:
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
                if self.order >= 1:
                    u[sp.pos[(1, 0, 0, 0, 0)]] += s
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
        """Taylor coefficients of x_i^m along axis i, one per degree 0 ..
        order: C(m, j) x_i^(m - j), and 0 above m."""
        key = (i, m)
        got = self._pow_x.get(key)
        if got is None:
            got = np.array([comb(m, j) * self.xs[i] ** (m - j) if j <= m
                            else 0.0 for j in range(self.order + 1)])
            self._pow_x[key] = got
        return got

    def term(self, mono, rp: int, ap: int, s: int) -> np.ndarray:
        """Jet of x^mono r^rp (r + s x0)^ap.

        x^mono is separable: its coefficient at gamma is the product over
        axes i of the coefficient of x_i^m_i at degree gamma_i, so it is
        gathered, not multiplied out.  One truncated product joins it to
        r^rp (r + s x0)^ap, itself cached as the term with mono 0.
        """
        key = (mono, rp, ap, s)
        got = self._term_cache.get(key)
        if got is None:
            sp = self.space
            if any(mono):
                xm = np.ones(sp.dim)
                for i, m in enumerate(mono):
                    xm *= self.xpow(i, m)[sp.grid[:, i]]
                got = sp.mul(self.term((0,) * 5, rp, ap, s), xm)
            else:
                got = self.rpow(rp)
                if ap:
                    got = sp.mul(got, self.axis_pow(ap, s))
            self._term_cache[key] = got
        return got

    def terms(self, keys: list[tuple]) -> np.ndarray:
        """The jets ``term`` gives for keys (mono, rp, ap, s), up to
        rounding, one row each.

        The x^mono factors of all keys are gathered at once.  Keys that
        share r^rp (r + s x0)^ap are joined to it by stacked products
        (`_JetSpace.stack_mul` with J = 1), in slices of rows whose pair
        products take at most _STACK_BYTES.
        """
        sp = self.space
        mono = np.array([k[0] for k in keys], dtype=np.intp).reshape(-1, 5)
        xm = np.ones((len(keys), sp.dim))
        for i in range(5):
            table = np.array([self.xpow(i, m)
                              for m in range(mono[:, i].max(initial=0) + 1)])
            xm *= table[mono[:, i]][:, sp.grid[:, i]]
        groups: dict[tuple, list[int]] = {}
        for n, (_, rp, ap, s) in enumerate(keys):
            groups.setdefault((rp, ap, s), []).append(n)
        step = max(1, _STACK_BYTES // (16 * sp.ia.size))
        out = np.empty((len(keys), sp.dim), dtype=complex)
        for (rp, ap, s), rows in groups.items():
            base = self.term((0,) * 5, rp, ap, s)[None]
            for at in range(0, len(rows), step):
                sel = rows[at:at + step]
                out[sel] = sp.stack_mul(xm[sel, :, None], base)
        return out


def shift_table(hi: _JetSpace, lo: _JetSpace, d: tuple):
    """Index/scale arrays mapping a jet of f at high order to the jet of
    d^d f at low order: coefficient gamma picks up (gamma+d)!/gamma!."""
    src = hi.locate(lo.grid + d)
    return src, hi.fact[src] / lo.fact
