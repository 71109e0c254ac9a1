"""Reference routes that only tests run, each the plain definition that a
kernel in hkit is checked against: the zero test and ring equality of one
ScalarExpr, iterated derivatives, evaluation at a point, the coefficients
of an operator as ScalarExprs, the jet of an expression, operators applied
to two-component functions in the spin-1/2 representation, and the matrix
commutator."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from hkit.errors import SingularPoint
from hkit.exact import (CHART_A, CHART_NONE, GR_ZERO, GaussRat, ScalarExpr,
                        _join_chart, nonzero_segments, rational_sqrt)
from hkit.gmat import mmul
from hkit.operators import word_matrix


def is_zero(e: ScalarExpr) -> bool:
    """Exact zero test of e in the ring: one segment of ``nonzero_segments``."""
    _, tk, re, im = e.arrays()
    seg = np.zeros(tk.size, dtype=np.int64)
    return not nonzero_segments(seg, tk, re, im, seg + (e.chart or CHART_A)).size


def equals(a: ScalarExpr, b: ScalarExpr) -> bool:
    """Equality in the ring; == on ScalarExpr compares the stored terms."""
    return is_zero(a - b)


def multi_diff(e: ScalarExpr, gamma) -> ScalarExpr:
    """d^gamma e, along axis 0 first, then axis 1, and so on."""
    for i, n in enumerate(gamma):
        for _ in range(n):
            e = e.diff(i)
    return e


def radius(xs):
    """The radius of a point with rational coordinates, a Fraction or None."""
    return rational_sqrt(sum(Fraction(v) ** 2 for v in xs))


def evaluate(e: ScalarExpr, xs):
    """e at the point xs: an exact GaussRat where the coordinates and the
    radius are rational, else a complex built in floats."""
    r = (radius(xs) if all(isinstance(v, (int, Fraction)) for v in xs)
         else None)
    if r is not None:
        xs, real, coeff = tuple(map(Fraction, xs)), Fraction, (lambda c: c)
    else:
        xs = tuple(map(float, xs))
        r, real, coeff = sum(v * v for v in xs) ** 0.5, float, GaussRat.to_complex
    axis = r + (e.chart or CHART_A) * xs[0]
    total = coeff(GR_ZERO)
    for (m, rp, ap), c in e.items():
        if (rp < 0 and r == 0) or (ap < 0 and axis == 0):
            raise SingularPoint(f"zero denominator at {xs}")
        f = real(1)
        for xi, mi in zip(xs, m):
            f *= xi ** mi
        total = total + coeff(c) * (f * r ** rp * axis ** ap)
    return total


def op_terms(op) -> dict:
    """The coefficients of an OperatorExpr as ScalarExprs, by (word, deriv)
    key, keys and terms in the operator's order."""
    if op._terms is not None:
        return op._terms
    t = op._table()
    return {key: ScalarExpr.from_arrays(t.den, t.tk[a:b], t.re[a:b], t.im[a:b], chart)
            for key, chart, a, b in zip(t.keys, t.chart.tolist(),
                                        t.start[:-1].tolist(), t.start[1:].tolist())}


def jet(pj, e: ScalarExpr) -> np.ndarray:
    """The Taylor coefficients of e at the point of the PointJet pj."""
    out = np.zeros(pj.space.dim, dtype=complex)
    for (mono, rp, ap), c in e.items():
        out += c.to_complex() * pj.term(mono, rp, ap, e.chart)
    return out


def derivatives(pj, e: ScalarExpr) -> dict[tuple, complex]:
    """{gamma: (d^gamma e)(p)} for every gamma within the order of pj."""
    return dict(zip(pj.space.indices, jet(pj, e) * pj.space.fact))


def apply(op, f: tuple) -> tuple:
    """op applied to the two-component function f = (up, down): generator
    words as spin-1/2 matrices, derivatives componentwise.  Terms are
    summed into dicts and each component is built once, since repeated
    ScalarExpr addition would copy the growing sum once per term."""
    acc, charts = ({}, {}), [CHART_NONE, CHART_NONE]
    for (w, d), coeff in op_terms(op).items():
        g = [multi_diff(c, d) for c in f]
        m = word_matrix(w)
        for slot in (0, 1):
            prod = coeff * (g[0] * m[slot][0] + g[1] * m[slot][1])
            if prod.is_structural_zero():
                continue
            charts[slot] = _join_chart(charts[slot], prod.chart)
            for k, v in prod.items():
                nv = acc[slot].get(k, GR_ZERO) + v
                if nv:
                    acc[slot][k] = nv
                else:
                    acc[slot].pop(k, None)
    return tuple(ScalarExpr(a, c) for a, c in zip(acc, charts))


def commutator(a, b):
    """[a, b] = ab - ba of two gmat matrices."""
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(mmul(a, b), mmul(b, a)))
