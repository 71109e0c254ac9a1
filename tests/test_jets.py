"""Numeric jets validated against the symbolic differentiation engine."""

from __future__ import annotations

from itertools import product

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
