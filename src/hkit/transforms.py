"""Quadratic norm-preserving maps R^D -> R^d and the angle coordinates.

The three classical cases D = 2, 4, 8 share the same skeleton: an
orthogonal-by-scaling matrix H(u; D) with H H^T = u^2 E, linear in u,
whose action on u itself produces a vector whose trailing components
vanish identically.  The surviving head is a quadratic map satisfying
the Euler identity |x| = |u|^2.

For D = 8 the matrix listing and the displayed component formulas in the
source differ in a handful of bilinear signs; both versions satisfy all
the invariants.  The map here follows the displayed component formulas,
and `matrix_vs_map_audit` reports exactly where the two disagree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import atan2, pi, prod, sqrt
from operator import add

import numpy as np

from .errors import BadDimension, UndefinedAngle, ZeroRadius


def _sin_squared(c):
    """s^2 on the circle c^2 + s^2 = 1, the rule `IntPoly.on_circles` applies."""
    return c * c * -1 + 1


class IntPoly:
    """Laurent polynomial with int coefficients, as {exponent tuple:
    coefficient} with no zero entries, so the zero polynomial has empty
    `terms`.  It takes +, - and * with an int or an IntPoly in the same
    variables, and ** with an int >= 0.

    Variables c_k, s_k may stand for the cos and sin of angles: modulo
    s_k^2 = 1 - c_k^2, Z[c_k, s_k] is an integral domain with the normal
    form of `on_circles`, every s_k at degree <= 1, so a trig identity holds
    exactly when its residual reduces to no terms."""

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int]):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def variables(cls, nvars: int) -> list[IntPoly]:
        return [cls(nvars, {tuple(int(i == k) for i in range(nvars)): 1})
                for k in range(nvars)]

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly(self.nvars, {(0,) * self.nvars: other})
        out = Counter(self.terms)
        out.update(other.terms)
        return IntPoly(self.nvars, out)

    def __sub__(self, other):
        return self + other * -1

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: Counter = Counter()
        for (ea, ca), (eb, cb) in product(self.terms.items(), other.terms.items()):
            out[tuple(map(add, ea, eb))] += ca * cb
        return IntPoly(self.nvars, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"IntPoly ** {n}: the exponent must be >= 0")
        return prod([self] * n, start=IntPoly(self.nvars, {(0,) * self.nvars: 1}))

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        return not (self - other).terms

    def diff(self, k: int) -> IntPoly:
        """Partial derivative in variable k."""
        return IntPoly(self.nvars, {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k]
                                    for e, c in self.terms.items()})

    def on_circles(self, circles) -> IntPoly:
        """Normal form modulo s^2 = 1 - c^2 for each (c, s) index pair."""
        out, v = self, self.variables(self.nvars)
        for c, s in circles:
            rule, powers, acc = _sin_squared(v[c]), {}, Counter()
            for e, coef in out.terms.items():
                half, low = divmod(e[s], 2)
                if half not in powers:
                    powers[half] = rule ** half
                for ep, cp in powers[half].terms.items():
                    acc[tuple(map(add, e[:s] + (low,) + e[s + 1:], ep))] += coef * cp
            out = IntPoly(self.nvars, acc)
        return out


# Rows of H(u; D) as (sign, index) pairs, indices 0-based into u.
H_SPEC: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {
    2: (
        ((1, 0), (-1, 1)),
        ((1, 1), (1, 0)),
    ),
    4: (
        ((1, 2), (-1, 3), (1, 0), (-1, 1)),
        ((1, 3), (1, 2), (1, 1), (1, 0)),
        ((1, 0), (1, 1), (-1, 2), (-1, 3)),
        ((1, 1), (-1, 0), (-1, 3), (1, 2)),
    ),
    8: (
        ((1, 0), (1, 1), (1, 2), (1, 3), (-1, 4), (-1, 5), (-1, 6), (-1, 7)),
        ((1, 4), (1, 5), (-1, 6), (-1, 7), (1, 0), (1, 1), (-1, 2), (-1, 3)),
        ((1, 5), (-1, 4), (1, 7), (-1, 6), (-1, 1), (1, 0), (-1, 3), (1, 2)),
        ((1, 6), (1, 7), (1, 4), (1, 5), (1, 2), (1, 3), (1, 0), (1, 1)),
        ((1, 7), (-1, 6), (-1, 5), (1, 4), (1, 3), (-1, 2), (-1, 1), (1, 0)),
        ((1, 1), (-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (1, 7), (-1, 6)),
        ((1, 2), (-1, 3), (-1, 0), (1, 1), (-1, 6), (1, 7), (1, 4), (-1, 5)),
        ((1, 3), (1, 2), (-1, 1), (-1, 0), (-1, 7), (-1, 6), (1, 5), (1, 4)),
    ),
}

# Output dimension of the quadratic map for each input dimension.
MAP_DIMS = {2: 2, 4: 3, 8: 5}


def h_matrix(u, dim: int | None = None):
    """H(u; D) with numeric entries, rows as listed in H_SPEC."""
    u = list(u)
    d = len(u) if dim is None else dim
    if d not in H_SPEC:
        raise BadDimension(f"no generalized rotation matrix in dimension {d}")
    if len(u) != d:
        raise BadDimension(f"expected {d} components, got {len(u)}")
    return [[s * u[j] for s, j in row] for row in H_SPEC[d]]


def h_matrix_orthogonality_check(dim: int) -> bool:
    """H H^T = (u.u) E as an identity of integer polynomials in u."""
    u = IntPoly.variables(dim)
    h = h_matrix(u)
    uu = sum(v * v for v in u)
    return all(sum(a * b for a, b in zip(h[i], h[j])) == (uu if i == j else 0)
               for i in range(dim) for j in range(i, dim))


def levi_civita_map(u):
    """R^2 -> R^2: (u1, u2) -> (u1^2 - u2^2, 2 u1 u2)."""
    u1, u2 = u
    return (u1 * u1 - u2 * u2, 2 * u1 * u2)


def kustaanheimo_stiefel_map(u):
    """R^4 -> R^3, the first three components of H(u; 4) u."""
    u1, u2, u3, u4 = u
    return (
        2 * (u1 * u3 - u2 * u4),
        2 * (u1 * u4 + u2 * u3),
        u1 * u1 + u2 * u2 - u3 * u3 - u4 * u4,
    )


def hurwitz_map(u):
    """R^8 -> R^5 by the displayed component formulas."""
    u0, u1, u2, u3, u4, u5, u6, u7 = u
    return (
        u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3
        - u4 * u4 - u5 * u5 - u6 * u6 - u7 * u7,
        2 * (u0 * u4 - u1 * u5 - u2 * u6 - u3 * u7),
        2 * (u0 * u5 + u1 * u4 - u2 * u7 + u3 * u6),
        2 * (u0 * u6 + u1 * u7 + u2 * u4 - u3 * u5),
        2 * (u0 * u7 - u1 * u6 + u2 * u5 + u3 * u4),
    )


def transform_map(u):
    """Dispatch on len(u): 2, 4 or 8 components."""
    n = len(u)
    if n == 2:
        return levi_civita_map(u)
    if n == 4:
        return kustaanheimo_stiefel_map(u)
    if n == 8:
        return hurwitz_map(u)
    raise BadDimension(f"no quadratic map from dimension {n}")


def euler_defect(u):
    """|x|^2 - |u|^4 for the map at u; on `IntPoly.variables(len(u))` it is
    the zero polynomial, which proves |x| = |u|^2 for every u."""
    x = transform_map(u)
    nu = sum(v * v for v in u)
    return sum(v * v for v in x) - nu * nu


def matrix_vs_map_audit() -> dict:
    """Compare H(u; 8) u against `hurwitz_map`, as polynomials in u.

    Returns which of the five head components agree, and whether the three
    trailing components of H u vanish identically.
    """
    u = IntPoly.variables(8)
    hu = [sum(a * b for a, b in zip(row, u)) for row in h_matrix(u)]
    x = hurwitz_map(u)
    head = [hu[k] == x[k] for k in range(5)]
    return {
        "head_matches": head,
        "tail_vanishes": all(hu[k] == 0 for k in (5, 6, 7)),
        "all_match": all(head),
    }


# ----- angle coordinates ----------------------------------------------------

@dataclass(frozen=True)
class AngleTriple:
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class HyperSpherical:
    r: float
    theta: float
    alpha: float
    beta: float
    gamma: float


def _fold(value: float, period: float) -> float:
    # Float remainder may round up to the period itself, which would break
    # the half-open range contract.
    out = value % period
    return 0.0 if out >= period else out


def space_angles(x) -> AngleTriple:
    """Euler angles of a base point from its four transverse coordinates.

    The two half-angle phases are read off independently, but their folds
    into range are coupled: alpha and gamma must shift by 2 pi together,
    or the reconstructed point flips sign in the transverse plane.
    """
    x1, x2, x3, x4 = (float(v) for v in x[1:5])
    s1 = sqrt(x1 * x1 + x2 * x2)
    s2 = sqrt(x3 * x3 + x4 * x4)
    if s1 == 0.0 or s2 == 0.0:
        raise UndefinedAngle("point lies on a coordinate axis of the base")
    psi1 = atan2(x1, x2)  # (alpha - gamma) / 2
    psi2 = atan2(x3, x4)  # (alpha + gamma) / 2
    k = 1 if psi1 + psi2 < 0 else 0
    alpha = psi1 + psi2 + 2 * pi * k
    gamma = psi2 - psi1 + 2 * pi * k
    if alpha >= 2 * pi:
        # Land alpha in range without breaking reconstruction: a lone 2 pi
        # shift of alpha flips the transverse planes, so gamma moves too.
        alpha -= 2 * pi
        gamma -= 2 * pi
    gamma = _fold(gamma, 4 * pi)
    beta = 2 * atan2(s1, s2)
    return AngleTriple(alpha, beta, gamma)


def hyperspherical(x) -> HyperSpherical:
    """Radius and angles (r, theta, alpha, beta, gamma) of a point of R^5."""
    xs = [float(v) for v in x]
    r = sqrt(sum(v * v for v in xs))
    if r == 0.0:
        raise ZeroRadius("angles are undefined at the origin")
    s = sqrt(sum(v * v for v in xs[1:]))
    if s == 0.0:
        raise UndefinedAngle("point lies on the polar axis")
    theta = atan2(s, xs[0])
    a = space_angles(xs)
    return HyperSpherical(r, theta, a.alpha, a.beta, a.gamma)


def angle_trig(h: HyperSpherical):
    """sin and cos of theta, beta / 2, (alpha - gamma) / 2, (alpha + gamma) / 2."""
    half_m = (h.alpha - h.gamma) / 2
    half_p = (h.alpha + h.gamma) / 2
    return (np.sin(h.theta), np.cos(h.theta), np.sin(h.beta / 2),
            np.cos(h.beta / 2), np.sin(half_m), np.cos(half_m),
            np.sin(half_p), np.cos(half_p))


def sphere_point(r, st, ct, sb, cb, sm, cm, sp, cp):
    """The inverse map from r and the sin and cos of the circles of
    `angle_trig`; they may be floats, arrays or IntPoly variables."""
    return (r * ct, r * st * sb * sm, r * st * sb * cm, r * st * cb * sp,
            r * st * cb * cp)


def sphere_frame(r, st, ct, sb, cb, sm, cm, sp, cp):
    """Twice the rows d x / d (theta, beta, alpha, gamma) of `sphere_point`,
    doubled so that every coefficient is an integer."""
    return [
        [-2 * r * st, 2 * r * ct * sb * sm, 2 * r * ct * sb * cm,
         2 * r * ct * cb * sp, 2 * r * ct * cb * cp],
        [0, r * st * cb * sm, r * st * cb * cm, -r * st * sb * sp,
         -r * st * sb * cp],
        [0, r * st * sb * cm, -r * st * sb * sm, r * st * cb * cp,
         -r * st * cb * sp],
        [0, -r * st * sb * cm, r * st * sb * sm, r * st * cb * cp,
         -r * st * cb * sp],
    ]


def hyperspherical_inverse(h: HyperSpherical):
    """Cartesian point from (r, theta, alpha, beta, gamma); angles may be arrays."""
    return sphere_point(h.r, *angle_trig(h))
