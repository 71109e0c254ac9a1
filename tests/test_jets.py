"""Numeric jets validated against the symbolic differentiation engine."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from hkit.exact import R, ScalarExpr, X
from hkit.jets import PointJet, _JetSpace, shift_table

from conftest import rational_points


def _symbolic_derivatives(e, point, order):
    out = {}
    for gamma in product(range(order + 1), repeat=5):
        if sum(gamma) > order:
            continue
        v = e.multi_diff(gamma).evaluate(point)
        out[gamma] = complex(v.to_complex())
    return out


EXPRS = [
    R.rpow(-1),
    X[0] * X[0] * X[1],
    X[2] * R.rpow(-3),
    ScalarExpr.axis_pow(-1) * X[4],
    (X[1] * X[3] - X[2] * X[4]) * R.rpow(-3) * ScalarExpr.axis_pow(-1),
]


@pytest.mark.parametrize("expr_index", range(len(EXPRS)))
def test_jet_matches_symbolic(expr_index):
    """Every jet coefficient up to third order agrees with multi_diff."""
    e = EXPRS[expr_index]
    for p in rational_points(3):
        jet = PointJet(p, 3)
        got = jet.derivatives(e)
        want = _symbolic_derivatives(e, p, 3)
        assert set(got) == set(want)
        for gamma, value in want.items():
            assert got[gamma] == pytest.approx(value, rel=1e-10, abs=1e-10)


def test_jet_linearity():
    p = rational_points(1)[0]
    jet = PointJet(p, 2)
    a, b = EXPRS[0], EXPRS[1]
    combined = jet.derivatives(a + b)
    da, db = jet.derivatives(a), jet.derivatives(b)
    for gamma in combined:
        assert combined[gamma] == pytest.approx(da[gamma] + db[gamma],
                                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_jet_space_tables(order):
    """The product table lists every pair of indices whose degrees sum to
    at most the order, each once, with the position of their sum."""
    sp = _JetSpace(order)
    assert sp.indices == sorted(sp.indices, key=lambda g: (sum(g), g))
    assert len(sp.indices) == len(set(sp.indices))
    assert all(sum(g) <= order for g in sp.indices)
    want = {(i, j) for i, a in enumerate(sp.indices)
            for j, b in enumerate(sp.indices) if sum(a) + sum(b) <= order}
    pairs = list(zip(sp.ia.tolist(), sp.ib.tolist()))
    assert len(pairs) == len(want) and set(pairs) == want
    for i, j, k in zip(sp.ia, sp.ib, sp.ic):
        assert sp.indices[k] == tuple(
            a + b for a, b in zip(sp.indices[i], sp.indices[j]))


def test_shift_table_differentiates_a_jet():
    """Shifting a jet of e by d gives the jet of d^d e."""
    e = EXPRS[4]
    p = rational_points(1)[0]
    d = (1, 0, 2, 0, 0)
    hi, lo = PointJet(p, 4), PointJet(p, 1)
    src, scale = shift_table(hi.space, lo.space, d)
    got = hi.expr(e)[src] * scale * lo.space.fact
    want = [complex(e.multi_diff(tuple(a + b for a, b in zip(g, d)))
                    .evaluate(p).to_complex()) for g in lo.space.indices]
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def _gathered_stack_mul(sp, a, b):
    """sum_j a[s, :, j] * b[j] the slow way: gather every (ia, ib) pair,
    multiply, sum over j and bin on ic."""
    out = np.zeros((a.shape[0], sp.dim), dtype=complex)
    for s in range(a.shape[0]):
        prod = (a[s].T[:, sp.ia] * b[:, sp.ib]).sum(axis=0)
        out[s] = np.bincount(sp.ic, prod.real, sp.dim)
        out[s] += 1j * np.bincount(sp.ic, prod.imag, sp.dim)
    return out


@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("J", [1, 28])
def test_stack_mul_matches_gathered_products(order, J):
    """The degree-block matmuls give the gathered pair products, binned on
    ic, for random complex stacks (two outputs, J jets each)."""
    sp = _JetSpace.get(order)
    rng = np.random.default_rng(1000 * J + order)
    a = rng.normal(size=(2, sp.dim, J)) + 1j * rng.normal(size=(2, sp.dim, J))
    b = rng.normal(size=(J, sp.dim)) + 1j * rng.normal(size=(J, sp.dim))
    got = sp.stack_mul(a, b)
    assert got.shape == (2, sp.dim)
    assert np.allclose(got, _gathered_stack_mul(sp, a, b), rtol=1e-13,
                       atol=0)


@pytest.mark.parametrize("order", range(9))
def test_mul_is_the_gathered_product(order):
    """`mul`, the J = 1 case of `stack_mul`, gives the gathered pair
    products exactly on real-valued jets, the only kind `PointJet`
    multiplies, and to rounding on complex ones."""
    sp = _JetSpace.get(order)
    rng = np.random.default_rng(order)
    for _ in range(20):
        a, b = rng.normal(size=(2, sp.dim)) + 0j
        want = _gathered_stack_mul(sp, a[None, :, None], b[None])[0]
        assert (sp.mul(a, b) == want).all()
        a, b = a + 1j * rng.normal(size=sp.dim), b + 1j * rng.normal(size=sp.dim)
        want = _gathered_stack_mul(sp, a[None, :, None], b[None])[0]
        assert np.allclose(sp.mul(a, b), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("order", range(7))
def test_stacked_terms_are_prefixes_of_order_6_terms(order):
    """`PointJet.terms` at any order from 0 up gives the leading entries of
    the order-6 `PointJet.term` jets, for coordinate monomials, powers of r
    and axis factors of both charts."""
    p = rational_points(1)[0]
    keys = [((0,) * 5, 0, 0, 0), ((0,) * 5, -3, 0, 0),
            ((2, 0, 1, 0, 3), 1, 0, 0), ((0, 1, 0, 0, 0), -1, -1, 1),
            ((1, 0, 0, 2, 0), 2, 2, -1), ((0, 0, 4, 0, 1), -2, -1, -1)]
    hi = PointJet(p, 6)
    got = PointJet(p, order).terms(keys)
    dim = _JetSpace.get(order).dim
    assert got.shape == (len(keys), dim)
    for row, key in zip(got, keys):
        want = hi.term(*key)[:dim]
        assert np.allclose(row, want, rtol=1e-13,
                           atol=1e-13 * np.abs(want).max())
