"""SU(2) gauge field of the unit monopole on R^5.

The potential lives on two patches: the first is regular away from the
negative x0 axis with denominator r (r + x0), the second away from the
positive axis with r (r - x0).  Numerators come from the antisymmetric
generator blocks TAU (first patch) and their anti-self-dual partners
TAU_BAR (second patch); both patches are fixed a second time by the
transition function built from the base Euler angles, which is how the
second listing was pinned down in the first place.

Everything algebraic here is exact over the localized radius ring; the
handful of genuinely transcendental statements (trig realization of the
generators, patch transition, angular form of the field) are checked
numerically at controlled tolerance.  Self-duality on the four-sphere is
among the exact identities: its Cartesian form needs no metric and no
Hodge dual.  The closed volume factor sqrt_det_metric_closed, which the
charge quadrature's exact node counts rest on, stays a test-checked fact.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import cos, pi, sin, sqrt

import numpy as np

from .errors import ChartMismatch
from .exact import (CHART_A, CHART_B, GaussRat, Point5, R, ScalarExpr, X)
from .operators import OperatorExpr, eps3, perm_sign
from .transforms import (HyperSpherical, hyperspherical_inverse, inverse_jacobian,
                         space_angles)

# Antisymmetric 5x5 generator blocks, row and column 0 empty.  Entries
# are +-i/2; the bar variant flips every entry that pairs index a with 4.
_HALF_I = GaussRat(0, 1, 2)

_TAU_ENTRIES = {
    1: {(1, 4): -1, (2, 3): -1},
    2: {(1, 3): 1, (2, 4): -1},
    3: {(1, 2): -1, (3, 4): -1},
}
_TAU_BAR_ENTRIES = {
    1: {(1, 4): 1, (2, 3): -1},
    2: {(1, 3): 1, (2, 4): 1},
    3: {(1, 2): -1, (3, 4): 1},
}


def _build_tau(entries):
    out = {}
    for a, pairs in entries.items():
        m = [[GaussRat(0)] * 5 for _ in range(5)]
        for (i, j), s in pairs.items():
            m[i][j] = _HALF_I * s
            m[j][i] = _HALF_I * (-s)
        out[a] = tuple(tuple(row) for row in m)
    return out


TAU = _build_tau(_TAU_ENTRIES)
TAU_BAR = _build_tau(_TAU_BAR_ENTRIES)


def _delta_bar(i: int, k: int) -> int:
    """delta_ik - delta_i0 delta_k0: identity on the last four slots."""
    return (1 if i == k else 0) - (1 if i == 0 and k == 0 else 0)


def tau_product_check(tau=None) -> bool:
    """4 t^a_ij t^b_jk = delta_ab (delta_ik - delta_i0 delta_k0)
    + 2i eps_abc t^c_ik, checked entrywise."""
    tau = TAU if tau is None else tau
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for i in range(5):
                for k in range(5):
                    lhs = sum((tau[a][i][j] * tau[b][j][k] for j in range(5)),
                              GaussRat(0)) * 4
                    rhs = GaussRat(_delta_bar(i, k)) if a == b else GaussRat(0)
                    for c in (1, 2, 3):
                        e = eps3(a, b, c)
                        if e:
                            rhs = rhs + tau[c][i][k] * GaussRat(0, 2 * e)
                    if lhs != rhs:
                        return False
    return True


def tau_eps_identity_check(tau=None) -> bool:
    """eps_abc t^b_ij t^c_km as a four-fold delta/tau combination."""
    tau = TAU if tau is None else tau
    for a in (1, 2, 3):
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    for m in range(5):
                        lhs = GaussRat(0)
                        for b in (1, 2, 3):
                            for c in (1, 2, 3):
                                e = eps3(a, b, c)
                                if e:
                                    lhs = lhs + tau[b][i][j] * tau[c][k][m] * e
                        rhs = (
                            tau[a][j][m] * (-_delta_bar(i, k))
                            - tau[a][j][k] * (-_delta_bar(i, m))
                            + tau[a][i][k] * (-_delta_bar(j, m))
                            - tau[a][i][m] * (-_delta_bar(j, k))
                        ) * _HALF_I
                        if lhs != rhs:
                            return False
    return True


# ----- potentials ------------------------------------------------------------

def chart_tau(chart: int):
    if chart == CHART_A:
        return TAU
    if chart == CHART_B:
        return TAU_BAR
    raise ChartMismatch("potentials need a definite chart")


@lru_cache(maxsize=None)
def vector_potential(a: int, chart: int = CHART_A):
    """A^a_j = 2 i t^a_jk x_k / (r (r + s x0)), s the chart sign."""
    tau = chart_tau(chart)
    comps = []
    for j in range(5):
        acc = ScalarExpr.zero()
        for k in range(1, 5):
            c = tau[a][j][k]
            if c:
                mono = [0] * 5
                mono[k] = 1
                acc = acc + ScalarExpr.term(
                    c * GaussRat(0, 2), mono, rp=-1, ap=-1, chart=chart)
        comps.append(acc)
    return tuple(comps)


# Component listings, the explicit form the potentials take on each patch.
_A_LISTING = {
    1: ((), ((1, 4),), ((1, 3),), ((-1, 2),), ((-1, 1),)),
    2: ((), ((-1, 3),), ((1, 4),), ((1, 1),), ((-1, 2),)),
    3: ((), ((1, 2),), ((-1, 1),), ((1, 4),), ((-1, 3),)),
}
_B_LISTING = {
    1: ((), ((-1, 4),), ((1, 3),), ((-1, 2),), ((1, 1),)),
    2: ((), ((-1, 3),), ((-1, 4),), ((1, 1),), ((1, 2),)),
    3: ((), ((1, 2),), ((-1, 1),), ((-1, 4),), ((1, 3),)),
}


def potential_listing(a: int, chart: int = CHART_A):
    """The hand-listed component form x_k-over-r(r + s x0)."""
    listing = _A_LISTING if chart == CHART_A else _B_LISTING
    comps = []
    for entry in listing[a]:
        acc = ScalarExpr.zero()
        for s, k in entry:
            mono = [0] * 5
            mono[k] = 1
            acc = acc + ScalarExpr.term(s, mono, rp=-1, ap=-1, chart=chart)
        comps.append(acc)
    return tuple(comps)


def _zero_sums(sums) -> list[bool]:
    """Whether each sum is zero, a sum being ``combine`` parts (coef, a, b)
    over ScalarExprs, b None for a lone a.  Each distinct scalar (by
    structure, so equal entries share a table) becomes one multiplication
    operator, and one ``OperatorExpr.combines_are_zero`` decides every sum;
    parts with coefficient 0, such as Kronecker deltas that vanish, drop out."""
    op = lru_cache(maxsize=None)(OperatorExpr.from_scalar)
    return OperatorExpr.combines_are_zero(
        [(c, op(a), None if b is None else op(b)) for c, a, b in parts]
        for parts in sums)


def potential_reproduction_check(chart: int = CHART_A) -> bool:
    """Generator formula with unit coupling reproduces the listing."""
    return all(_zero_sums(
        [(1, u, None), (-1, v, None)]
        for a in (1, 2, 3)
        for u, v in zip(vector_potential(a, chart), potential_listing(a, chart))))


def potential_orthogonality_check(chart: int = CHART_A) -> bool:
    """A^a . A^b = delta_ab (r - s x0) / (r^2 (r + s x0))."""
    s = 1 if chart == CHART_A else -1
    num = ScalarExpr.rpow(1) - ScalarExpr.coord(0) * s
    den = ScalarExpr.term(1, rp=-2, ap=-1, chart=chart)
    A = {a: vector_potential(a, chart) for a in (1, 2, 3)}
    return all(_zero_sums(
        [(1, u, v) for u, v in zip(A[a], A[b])] + [(-(a == b), num, den)]
        for a in (1, 2, 3) for b in (1, 2, 3)))


def potential_transversality_check(chart: int = CHART_A) -> bool:
    """A^a . x = 0 on both patches."""
    return all(_zero_sums([(1, comp, x) for comp, x in
                           zip(vector_potential(a, chart), X)]
                          for a in (1, 2, 3)))


# ----- field tensor -----------------------------------------------------------

@lru_cache(maxsize=None)
def field_tensor(a: int, chart: int = CHART_A, method: str = "definition"):
    """F^a_ij as a 5x5 antisymmetric matrix of exact expressions.

    method 'definition' takes curl plus commutator of the potential,
    'closed' uses the compact algebraic form, 'table' returns the
    hand-listed first-patch entries verbatim (including the one entry
    the listing gets wrong, which field_table_discrepancies pins down).
    """
    if method == "definition":
        A = {c: vector_potential(c, chart) for c in (1, 2, 3)}
        F = [[ScalarExpr.zero()] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                v = A[a][j].diff(i) - A[a][i].diff(j)
                for b in (1, 2, 3):
                    for c in (1, 2, 3):
                        e = eps3(a, b, c)
                        if e:
                            v = v + A[b][i] * A[c][j] * e
                F[i][j] = v
                F[j][i] = -v
        return tuple(tuple(row) for row in F)
    if method == "closed":
        s = 1 if chart == CHART_A else -1
        tau = chart_tau(chart)
        A = vector_potential(a, chart)
        F = [[ScalarExpr.zero()] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                v = A[i] * X[j] - A[j] * X[i]
                if j == 0:
                    v = v + A[i] * ScalarExpr.term(s, rp=1)
                if i == 0:
                    v = v - A[j] * ScalarExpr.term(s, rp=1)
                if tau[a][i][j]:
                    v = v - ScalarExpr.const(tau[a][i][j] * GaussRat(0, 2))
                v = v * ScalarExpr.rpow(-2)
                F[i][j] = v
                F[j][i] = -v
        return tuple(tuple(row) for row in F)
    if method == "table":
        if chart != CHART_A:
            raise ChartMismatch("the listing covers only the first patch")
        return _field_table(a)
    raise ValueError(f"unknown method {method!r}")


def _t(coeff, mono=(0, 0, 0, 0, 0), rp=0, ap=0):
    return ScalarExpr.term(coeff, mono, rp=rp, ap=ap,
                           chart=CHART_A if ap else 0)


def _pair(c1, m1, c2, m2):
    return _t(c1, m1, rp=-3, ap=-1) + _t(c2, m2, rp=-3, ap=-1)


def _diag(i, j):
    """(1/r^2) [ (x_i^2 + x_j^2) / (r (r + x0)) - 1 ]."""
    mi, mj = [0] * 5, [0] * 5
    mi[i], mj[j] = 2, 2
    return _t(1, mi, rp=-3, ap=-1) + _t(1, mj, rp=-3, ap=-1) + _t(-1, rp=-2)


@lru_cache(maxsize=None)
def _field_table(a: int):
    e = [[None] * 5 for _ in range(5)]
    x = [(1 if k == m else 0 for m in range(5)) for k in range(5)]

    def mono(*pairs):
        m = [0] * 5
        for k in pairs:
            m[k] += 1
        return tuple(m)

    if a == 1:
        e[0][1] = _t(-1, mono(4), rp=-3)
        e[0][2] = _t(-1, mono(3), rp=-3)
        e[0][3] = _t(1, mono(2), rp=-3)
        e[0][4] = _t(1, mono(1), rp=-3)
        e[1][2] = _pair(1, mono(2, 4), -1, mono(1, 3))
        e[1][3] = _pair(1, mono(1, 2), 1, mono(3, 4))
        e[1][4] = _diag(1, 4)
        e[2][3] = _diag(2, 3)
        e[2][4] = _pair(1, mono(1, 2), 1, mono(3, 4))
        e[3][4] = _pair(-1, mono(1, 2), -1, mono(3, 4))
    elif a == 2:
        e[0][1] = _t(-1, mono(3), rp=-3)
        e[0][2] = _t(1, mono(4), rp=-3)
        e[0][3] = _t(-1, mono(1), rp=-3)
        e[0][4] = _t(1, mono(2), rp=-3)
        e[1][2] = _pair(-1, mono(1, 4), -1, mono(2, 3))
        e[1][3] = -_diag(1, 3)
        e[1][4] = _pair(1, mono(1, 2), -1, mono(3, 4))
        e[2][3] = _pair(1, mono(3, 4), -1, mono(1, 2))
        e[2][4] = _diag(2, 4)
        e[3][4] = _pair(1, mono(1, 4), 1, mono(2, 3))
    elif a == 3:
        e[0][1] = _t(-1, mono(2), rp=-3)
        e[0][2] = _t(1, mono(1), rp=-3)
        e[0][3] = _t(-1, mono(4), rp=-3)
        e[0][4] = _t(1, mono(3), rp=-3)
        e[1][2] = _diag(1, 2)
        e[1][3] = _pair(1, mono(2, 3), -1, mono(1, 4))
        e[1][4] = _pair(1, mono(1, 3), 1, mono(2, 4))
        e[2][3] = _pair(-1, mono(1, 3), -1, mono(2, 4))
        e[2][4] = _pair(1, mono(2, 3), -1, mono(1, 4))
        e[3][4] = _diag(3, 4)
    F = [[ScalarExpr.zero()] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            F[i][j] = e[i][j]
            F[j][i] = -e[i][j]
    return tuple(tuple(row) for row in F)


def _differs_from_definition(method: str, chart: int = CHART_A) -> set:
    """The entries (a, i, j), i < j, where F by ``method`` differs from F
    by definition."""
    fd = {a: field_tensor(a, chart, "definition") for a in (1, 2, 3)}
    fm = {a: field_tensor(a, chart, method) for a in (1, 2, 3)}
    entries = [(a, i, j) for a in (1, 2, 3)
               for i in range(5) for j in range(i + 1, 5)]
    zero = _zero_sums([(1, fd[a][i][j], None), (-1, fm[a][i][j], None)]
                      for a, i, j in entries)
    return {e for e, z in zip(entries, zero) if not z}


def field_closed_form_check(chart: int = CHART_A) -> bool:
    """Curl-plus-commutator equals the compact algebraic form, exactly."""
    return not _differs_from_definition("closed", chart)


def field_table_discrepancies() -> set:
    """Entries where the hand listing disagrees with the derived tensor."""
    return _differs_from_definition("table")


# Entries of the hand listing that disagree with both derivation routes.
# Derived values: F^1_34 = (x1 x3 - x2 x4) / (r^3 (r + x0)),
# F^2_01 = +x3 / r^3, F^2_02 = -x4 / r^3.
KNOWN_TABLE_DISCREPANCIES = {(1, 3, 4), (2, 0, 1), (2, 0, 2)}


def ff_contraction_check(chart: int = CHART_A) -> bool:
    """F^a_ij F^b_ij = (4 / r^4) delta_ab, summed over i < j twice, as
    field_tensor builds F antisymmetric."""
    F = {a: field_tensor(a, chart) for a in (1, 2, 3)}
    r_4 = ScalarExpr.rpow(-4)
    return all(_zero_sums(
        [(2, F[a][i][j], F[b][i][j]) for i in range(5) for j in range(i + 1, 5)]
        + [(-4 * (a == b), r_4, None)]
        for a in (1, 2, 3) for b in (1, 2, 3)))


def ff_intermediate_check(chart: int = CHART_A) -> bool:
    """F^a_ij F^b_jk = (x_i x_k - r^2 d_ik) delta_ab / r^6
    + eps_abc F^c_ik / r^2, for (a, i) <= (b, k): as field_tensor builds F
    antisymmetric, the residual at (b, a, k, i) is the one at (a, b, i, k)."""
    F = {a: field_tensor(a, chart) for a in (1, 2, 3)}
    r_2, r_4 = ScalarExpr.rpow(-2), ScalarExpr.rpow(-4)
    x_r6 = [x * ScalarExpr.rpow(-6) for x in X]
    return all(_zero_sums(
        [(1, F[a][i][j], F[b][j][k]) for j in range(5)]
        + [(-eps3(a, b, c), F[c][i][k], r_2) for c in (1, 2, 3)]
        + [(-(a == b), x_r6[i], X[k]), ((a == b) * (i == k), r_4, None)]
        for a in (1, 2, 3) for b in (1, 2, 3)
        for i in range(5) for k in range(5) if (a, i) <= (b, k)))


def self_duality_check(chart: int = CHART_A) -> bool:
    """(1/2) eps_ijklm F^a_kl x_m = r F^a_ij for every a and i < j.

    Contracting with x_i leaves r x_i F^a_ij = 0, so F has no radial leg,
    and on the tangent 4-plane the identity is *F = F for the orientation
    eps(t_1, t_2, t_3, t_4, x/r) = +1.  That is the (theta, beta, alpha,
    gamma) orientation, as det[d x / d(theta, beta, alpha, gamma); x/r] > 0
    (a tested fact).  The half sum over k, l is the sum over the pairs
    k < l of the three indices other than i, j, with m the one left out."""
    F = {a: field_tensor(a, chart) for a in (1, 2, 3)}
    sums = []
    for a in (1, 2, 3):
        for i, j in combinations(range(5), 2):
            rest = [n for n in range(5) if n not in (i, j)]
            sums.append([(perm_sign((i, j, k, l, m)), F[a][k][l], X[m])
                         for (k, l), m in zip(combinations(rest, 2), rest[::-1])]
                        + [(-1, F[a][i][j], R)])
    return all(_zero_sums(sums))


# ----- trig realization of the generators -------------------------------------

def _trig_ops(variant: str):
    """Angle-space first-order operators, axes (alpha, beta, gamma)."""
    if variant == "printed":
        def c1a(p):
            return 1j * cos(p[0]) * cos(p[1])
    elif variant == "cot":
        def c1a(p):
            return 1j * cos(p[0]) * cos(p[1]) / sin(p[1])
    else:
        raise ValueError(f"unknown variant {variant!r}")
    t1 = (
        (c1a, 0),
        (lambda p: 1j * sin(p[0]), 1),
        (lambda p: -1j * cos(p[0]) / sin(p[1]), 2),
    )
    t2 = (
        (lambda p: 1j * sin(p[0]) * cos(p[1]) / sin(p[1]), 0),
        (lambda p: -1j * cos(p[0]), 1),
        (lambda p: -1j * sin(p[0]) / sin(p[1]), 2),
    )
    t3 = ((lambda p: -1j, 0),)
    return {1: t1, 2: t2, 3: t3}


def _apply_trig(terms, f, p, h):
    total = 0j
    for coef, axis in terms:
        pp, pm = list(p), list(p)
        pp[axis] += h
        pm[axis] -= h
        total += coef(p) * (f(tuple(pp)) - f(tuple(pm))) / (2 * h)
    return total


_TRIG_TEST_FUNS = (
    lambda p: sin(p[0] + 0.3) * cos(0.7 * p[1] + 0.1) * sin(p[2] / 2 + 0.2),
    lambda p: cos(2 * p[0]) + sin(p[1]) * cos(p[2] / 2) + sin(p[1] / 3) * sin(p[0]),
)


def su2_trig_generators_check(variant: str = "cot", n_points: int = 50,
                              step: float = 1e-5, seed: int = 0) -> float:
    """Worst residual of [T_a, T_b] - i eps_abc T_c on test functions.

    Derivatives are nested central differences, so the residual floor is
    set by the square of the step; 1e-5 comfortably resolves 1e-7.
    """
    ops = _trig_ops(variant)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        p = (rng.uniform(0.3, 2 * pi - 0.3), rng.uniform(0.5, pi - 0.5),
             rng.uniform(0.3, 4 * pi - 0.3))
        for f in _TRIG_TEST_FUNS:
            for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
                def bf(q, _b=b, _f=f):
                    return _apply_trig(ops[_b], _f, q, step)

                def af(q, _a=a, _f=f):
                    return _apply_trig(ops[_a], _f, q, step)

                lhs = (_apply_trig(ops[a], bf, p, step)
                       - _apply_trig(ops[b], af, p, step))
                rhs = 1j * _apply_trig(ops[c], f, p, step)
                worst = max(worst, abs(lhs - rhs))
    return worst


# ----- patch transition --------------------------------------------------------

_S1 = np.array([[0, 1], [1, 0]], complex)
_S2 = np.array([[0, -1j], [1j, 0]], complex)
_S3 = np.array([[1, 0], [0, -1]], complex)
SPIN_NUM = {1: _S1 / 2, 2: _S2 / 2, 3: _S3 / 2}


def _ez(t: float) -> np.ndarray:
    return np.diag([np.exp(1j * t / 2), np.exp(-1j * t / 2)])


def _ey(t: float) -> np.ndarray:
    c, s = cos(t / 2), sin(t / 2)
    return np.array([[c, s], [-s, c]], complex)


def transition_matrix(x) -> np.ndarray:
    """S = exp(-i gamma T3) exp(-i beta T2) exp(-i alpha T3) at a base point."""
    a = space_angles(x)
    return _ez(-a.gamma) @ _ey(-a.beta) @ _ez(-a.alpha)


def _space_angle_gradients(x):
    x0, x1, x2, x3, x4 = x
    s1s, s2s = x1 * x1 + x2 * x2, x3 * x3 + x4 * x4
    s1, s2 = sqrt(s1s), sqrt(s2s)
    rho2 = s1s + s2s
    gp1 = np.array([0, x2 / s1s, -x1 / s1s, 0, 0])
    gp2 = np.array([0, 0, 0, x4 / s2s, -x3 / s2s])
    gb = np.array([0, 2 * x1 * s2 / (s1 * rho2), 2 * x2 * s2 / (s1 * rho2),
                   -2 * x3 * s1 / (s2 * rho2), -2 * x4 * s1 / (s2 * rho2)])
    return gp1 + gp2, gb, gp2 - gp1


def _potential_matrix(x, chart: int) -> list[np.ndarray]:
    p = Point5([float(v) for v in x])
    out = []
    for j in range(5):
        m = np.zeros((2, 2), complex)
        for a in (1, 2, 3):
            m += vector_potential(a, chart)[j].evaluate(p) * SPIN_NUM[a]
        out.append(m)
    return out


def gauge_transform_check(n_points: int = 100, seed: int = 0) -> float:
    """Worst | S A_j S^-1 + i S (d_j S^-1) - B_j | over random points.

    The derivative of S^-1 is taken analytically through the angle
    gradients, so the only error source is floating point itself.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    n = 0
    while n < n_points:
        x = rng.uniform(-1.5, 1.5, 5)
        s1 = sqrt(x[1] ** 2 + x[2] ** 2)
        s2 = sqrt(x[3] ** 2 + x[4] ** 2)
        if s1 < 0.2 or s2 < 0.2:
            continue
        n += 1
        ang = space_angles(x)
        al, be, ga = ang.alpha, ang.beta, ang.gamma
        S = transition_matrix(x)
        Sinv = _ez(al) @ _ey(be) @ _ez(ga)
        dSa = 1j * SPIN_NUM[3] @ Sinv
        dSb = _ez(al) @ (1j * SPIN_NUM[2]) @ _ey(be) @ _ez(ga)
        dSg = Sinv @ (1j * SPIN_NUM[3])
        gal, gbe, gga = _space_angle_gradients(x)
        Amats = _potential_matrix(x, CHART_A)
        Bmats = _potential_matrix(x, CHART_B)
        for j in range(5):
            djSinv = dSa * gal[j] + dSb * gbe[j] + dSg * gga[j]
            lhs = S @ Amats[j] @ Sinv + 1j * (S @ djSinv)
            worst = max(worst, float(np.max(np.abs(lhs - Bmats[j]))))
    return worst


# ----- angular form of the field ------------------------------------------------

Y_ANGULAR = ("theta", "beta", "alpha", "gamma")
_XBAR_INDEX = {"r": 0, "theta": 1, "alpha": 2, "beta": 3, "gamma": 4}

# Hand listing of the angular components on the first patch; each entry is
# a function of (theta, alpha, beta).  Omitted pairs vanish, as do all
# components with an r leg.
_ANGULAR_TABLE = {
    1: {
        ("theta", "beta"): lambda t, a, b: 0.5 * sin(t) * sin(a),
        ("theta", "alpha"): lambda t, a, b: 0.0,
        ("theta", "gamma"): lambda t, a, b: -0.5 * sin(t) * sin(b) * cos(a),
        ("beta", "alpha"): lambda t, a, b: -0.25 * sin(t) ** 2 * cos(a),
        ("beta", "gamma"): lambda t, a, b: -0.25 * sin(t) ** 2 * cos(b) * cos(a),
        ("alpha", "gamma"): lambda t, a, b: 0.25 * sin(t) ** 2 * sin(b) * sin(a),
    },
    2: {
        ("theta", "beta"): lambda t, a, b: 0.5 * sin(t) * cos(a),
        ("theta", "alpha"): lambda t, a, b: 0.0,
        ("theta", "gamma"): lambda t, a, b: 0.5 * sin(t) * sin(b) * sin(a),
        ("beta", "alpha"): lambda t, a, b: 0.25 * sin(t) ** 2 * sin(a),
        ("beta", "gamma"): lambda t, a, b: 0.25 * sin(t) ** 2 * cos(b) * sin(a),
        ("alpha", "gamma"): lambda t, a, b: 0.25 * sin(t) ** 2 * sin(b) * cos(a),
    },
    3: {
        ("theta", "beta"): lambda t, a, b: 0.0,
        ("theta", "alpha"): lambda t, a, b: 0.5 * sin(t),
        ("theta", "gamma"): lambda t, a, b: 0.5 * sin(t) * cos(b),
        ("beta", "alpha"): lambda t, a, b: 0.0,
        ("beta", "gamma"): lambda t, a, b: -0.25 * sin(t) ** 2 * sin(b),
        ("alpha", "gamma"): lambda t, a, b: 0.0,
    },
}


def angular_table_value(a: int, c1: str, c2: str, theta: float, alpha: float,
                        beta: float) -> float:
    if c1 == c2 or "r" in (c1, c2):
        return 0.0
    fn = _ANGULAR_TABLE[a].get((c1, c2))
    if fn is not None:
        return fn(theta, alpha, beta)
    return -_ANGULAR_TABLE[a][(c2, c1)](theta, alpha, beta)


def cartesian_field_at(a: int, x, chart: int = CHART_A) -> np.ndarray:
    p = Point5([float(v) for v in x])
    F = field_tensor(a, chart)
    out = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            if i != j:
                out[i, j] = F[i][j].evaluate(p).real
    return out


def angular_field_at(a: int, h: HyperSpherical, chart: int = CHART_A) -> np.ndarray:
    """F in (r, theta, alpha, beta, gamma) components by Jacobian pullback."""
    x = hyperspherical_inverse(h)
    J = np.array(inverse_jacobian(h))
    return J @ cartesian_field_at(a, x, chart) @ J.T


def _random_point(rng) -> HyperSpherical:
    """A point off the chart's singular set, drawn as r, theta, alpha, beta, gamma."""
    return HyperSpherical(
        r=rng.uniform(0.5, 2.0),
        theta=rng.uniform(0.3, pi - 0.3),
        alpha=rng.uniform(0.1, 2 * pi - 0.1),
        beta=rng.uniform(0.3, pi - 0.3),
        gamma=rng.uniform(0.1, 4 * pi - 0.1),
    )


def angular_field_check(n_points: int = 50, seed: int = 0) -> float:
    """Worst deviation of the pulled-back field from the angular listing."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        h = _random_point(rng)
        for a in (1, 2, 3):
            Fb = angular_field_at(a, h)
            for c1 in ("r",) + Y_ANGULAR:
                for c2 in ("r",) + Y_ANGULAR:
                    got = Fb[_XBAR_INDEX[c1], _XBAR_INDEX[c2]]
                    want = angular_table_value(a, c1, c2, h.theta, h.alpha,
                                               h.beta)
                    worst = max(worst, abs(got - want))
    return worst


# ----- volume factor -------------------------------------------------------------

def sqrt_det_metric_closed(h: HyperSpherical) -> float:
    """r^4 sin^3(theta) sin(beta) / 8, the closed form of the volume factor."""
    return h.r ** 4 * sin(h.theta) ** 3 * sin(h.beta) / 8
