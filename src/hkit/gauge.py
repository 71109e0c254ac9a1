"""SU(2) gauge field of the unit monopole on R^5.

The potential lives on two patches: the first is regular away from the
negative x0 axis with denominator r (r + x0), the second away from the
positive axis with r (r - x0).  Numerators come from the antisymmetric
generator blocks TAU (first patch) and their anti-self-dual partners
TAU_BAR (second patch); both patches are fixed a second time by the
transition function built from the base Euler angles, which is how the
second listing was pinned down in the first place.

Everything here is exact but the patch transition, which is checked
numerically: the potential and field identities over the localized radius
ring (self-duality among them, in a Cartesian form that needs no metric),
and the trig realization of the generators and the angular form of the
field as trig polynomials on transforms.IntPoly.  The closed volume factor
sqrt_det_metric_closed, which the charge quadrature's exact node counts
rest on, is proved in tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import cos, sin, sqrt

import numpy as np

from .errors import ChartMismatch
from .exact import (CHART_A, CHART_B, GaussRat, Point5, R, ScalarExpr, X)
from .operators import OperatorExpr, eps3, perm_sign
from .transforms import (HyperSpherical, IntPoly, hyperspherical_inverse,
                         inverse_jacobian, space_angles, sphere_frame, sphere_point)

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
    for a, b, i, k in product((1, 2, 3), (1, 2, 3), range(5), range(5)):
        lhs = sum((tau[a][i][j] * tau[b][j][k] for j in range(5)), GaussRat(0)) * 4
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
    for a, i, j, k, m in product((1, 2, 3), *[range(5)] * 4):
        lhs = GaussRat(0)
        for b, c in product((1, 2, 3), repeat=2):
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
        for i, j in combinations(range(5), 2):
            v = A[a][j].diff(i) - A[a][i].diff(j)
            for b, c in product((1, 2, 3), repeat=2):
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
        for i, j in combinations(range(5), 2):
            v = A[i] * X[j] - A[j] * X[i]
            if i == 0:  # j > i, so only the first index can be 0
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
    for i, j in combinations(range(5), 2):
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
    (proved in tests).  The half sum over k, l is the sum over the pairs
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

def su2_trig_generators_check(variant: str = "cot") -> int:
    """How many of the 9 components of [T_a, T_b] - i eps_abc T_c, axes
    (alpha, beta, gamma), are nonzero as trig polynomials.

    T_a = i S_a with S_a real, so the bracket closes when [S_a, S_b] =
    eps_abc S_c.  Coefficient k of S_a is P_a^k / sin(beta), and sin^3(beta)
    times component k of the residual is sum_j P_a^j (d_j P_b^k sin(beta) -
    P_b^k d_j sin(beta)) - (a <-> b) - eps_abc P_c^k sin^2(beta).  'cot' has
    cos(alpha) cot(beta) on d_alpha of S_1, 'printed' cos(alpha) cos(beta).
    """
    ca, sa, cb, sb = v = IntPoly.variables(4)
    p1 = {"cot": ca * cb, "printed": ca * cb * sb}.get(variant)
    if p1 is None:
        raise ValueError(f"unknown variant {variant!r}")
    zero = ca * 0
    P = {1: (p1, sa * sb, -ca), 2: (sa * cb, -ca * sb, -sa), 3: (-sb, zero, zero)}

    def d(f, j):  # d/dalpha, d/dbeta: variables 2j, 2j + 1 are their cos, sin
        return f.diff(2 * j + 1) * v[2 * j] - f.diff(2 * j) * v[2 * j + 1]

    def lie(a, b, k):  # no coefficient depends on gamma
        return sum((P[a][j] * (d(P[b][k], j) * sb - P[b][k] * d(sb, j))
                    for j in (0, 1)), zero)

    return sum(bool((lie(a, b, k) - lie(b, a, k) - P[c][k] * sb * sb)
                    .on_circles(((0, 1), (2, 3))).terms)
               for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) for k in range(3))


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

# Angular listing of the first-patch F^a_mn, m before n in r, Y_ANGULAR, at
# four times the listed value: (k, p, factors...) is k sin^p(theta) times the
# factors.  Omitted components vanish, among them all with an r leg.
_ANGULAR_LISTING = {
    (1, "theta", "beta"): (2, 1, "sin a"),
    (1, "theta", "gamma"): (-2, 1, "cos a", "sin b"),
    (1, "beta", "alpha"): (-1, 2, "cos a"),
    (1, "beta", "gamma"): (-1, 2, "cos a", "cos b"),
    (1, "alpha", "gamma"): (1, 2, "sin a", "sin b"),
    (2, "theta", "beta"): (2, 1, "cos a"),
    (2, "theta", "gamma"): (2, 1, "sin a", "sin b"),
    (2, "beta", "alpha"): (1, 2, "sin a"),
    (2, "beta", "gamma"): (1, 2, "sin a", "cos b"),
    (2, "alpha", "gamma"): (1, 2, "cos a", "sin b"),
    (3, "theta", "alpha"): (2, 1),
    (3, "theta", "gamma"): (2, 1, "cos b"),
    (3, "beta", "gamma"): (-1, 2, "sin b"),
}


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


def angular_field_check() -> int:
    """How many of the 30 components F^a_mn, m < n, of the pulled-back
    first-patch field differ from the angular listing, as trig polynomials.

    r and the sin and cos of theta, beta/2 and (alpha -+ gamma)/2 enter the
    inverse map and its doubled rows as IntPoly variables; each term
    x^m r^k (r + x0)^n of F^a is cleared of the largest power of
    r + x0 = r (1 + cos theta) and pulled back with the rows' 2x2 minors.
    """
    r, *trig = IntPoly.variables(9)
    st, _, sb, cb, sm, cm, sp, cp = trig
    x = sphere_point(r, *trig)
    J = [sphere_point(1, *trig), *sphere_frame(r, *trig)]
    lift = r + x[0]
    F = {a: field_tensor(a, CHART_A) for a in (1, 2, 3)}
    clear = max(-n for a in F for row in F[a] for e in row for (_, _, n), _ in e.items())
    factor = {"sin a": sm * cp + cm * sp, "cos a": cm * cp - sm * sp,
              "sin b": sb * cb * 2, "cos b": cb * cb - sb * sb}

    def poly(e: ScalarExpr) -> IntPoly:
        out = r * 0
        for (m, k, n), c in e.items():
            if c.b or c.d != 1:
                raise ValueError("field coefficients must be integers")
            term = IntPoly(9, {(k,) + (0,) * 8: c.a}) * lift ** (n + clear)
            for xi, mi in zip(x, m):
                term = term * xi ** mi
            out = out + term
        return out

    names = ("r",) + Y_ANGULAR
    pairs = list(combinations(range(5), 2))
    minors = {(m, n): [J[m][i] * J[n][j] - J[m][j] * J[n][i] for i, j in pairs]
              for m, n in pairs}
    nonzero = 0
    for a in (1, 2, 3):
        Fa = [poly(F[a][i][j]) for i, j in pairs]
        for m, n in pairs:
            k, p, *factors = _ANGULAR_LISTING.get((a, names[m], names[n]), (0, 0))
            res = st ** p * lift ** clear * -k
            for f in factors:
                res = res * factor[f]
            for f, w in zip(Fa, minors[m, n]):
                res = res + f * w
            nonzero += bool(res.on_circles(((2, 1), (4, 3), (6, 5), (8, 7))).terms)
    return nonzero


# ----- volume factor -------------------------------------------------------------

def sqrt_det_metric_closed(h: HyperSpherical) -> float:
    """r^4 sin^3(theta) sin(beta) / 8, the closed form of the volume factor."""
    return h.r ** 4 * sin(h.theta) ** 3 * sin(h.beta) / 8
