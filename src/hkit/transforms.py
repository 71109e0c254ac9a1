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

from dataclasses import dataclass
from math import atan2, pi, sqrt

import numpy as np

from .errors import BadDimension, UndefinedAngle, ZeroRadius

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
    """Symbolic H H^T = u.u E, via bilinear coefficient bookkeeping."""
    if dim not in H_SPEC:
        raise BadDimension(f"no generalized rotation matrix in dimension {dim}")
    rows = H_SPEC[dim]
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            acc: dict[tuple[int, int], int] = {}
            for (si, ai), (sj, aj) in zip(ri, rj):
                key = (ai, aj) if ai <= aj else (aj, ai)
                acc[key] = acc.get(key, 0) + si * sj
            want = {(k, k): 1 for k in range(dim)} if i == j else {}
            if {k: v for k, v in acc.items() if v} != want:
                return False
    return True


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
    """|x|^2 - |u|^4 for the map at u; exactly zero on rational input."""
    x = transform_map(u)
    nu = sum(v * v for v in u)
    return sum(v * v for v in x) - nu * nu


def _sym_bilinear(expr_rows):
    """Each component as {(i, j): coeff} over unordered index pairs."""
    out = []
    for row in expr_rows:
        acc: dict[tuple[int, int], int] = {}
        for coeff, i, j in row:
            key = (i, j) if i <= j else (j, i)
            acc[key] = acc.get(key, 0) + coeff
        out.append({k: v for k, v in acc.items() if v})
    return out


def matrix_vs_map_audit() -> dict:
    """Compare H(u; 8) u against the component formulas, symbolically.

    Returns which of the five head components agree, and whether the three
    trailing components of H u vanish identically.
    """
    rows = H_SPEC[8]
    hu = _sym_bilinear(
        [[(s, j, k) for k in range(8) for s, j in [row[k]]] for row in rows]
    )
    m = _sym_bilinear([
        [(1, 0, 0), (1, 1, 1), (1, 2, 2), (1, 3, 3),
         (-1, 4, 4), (-1, 5, 5), (-1, 6, 6), (-1, 7, 7)],
        [(2, 0, 4), (-2, 1, 5), (-2, 2, 6), (-2, 3, 7)],
        [(2, 0, 5), (2, 1, 4), (-2, 2, 7), (2, 3, 6)],
        [(2, 0, 6), (2, 1, 7), (2, 2, 4), (-2, 3, 5)],
        [(2, 0, 7), (-2, 1, 6), (2, 2, 5), (2, 3, 4)],
    ])
    head = [hu[k] == m[k] for k in range(5)]
    tail_zero = all(not hu[k] for k in (5, 6, 7))
    return {
        "head_matches": head,
        "tail_vanishes": tail_zero,
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


def _angle_trig(h: HyperSpherical):
    """sin and cos of theta, beta / 2, (alpha - gamma) / 2, (alpha + gamma) / 2."""
    half_m = (h.alpha - h.gamma) / 2
    half_p = (h.alpha + h.gamma) / 2
    return (np.sin(h.theta), np.cos(h.theta), np.sin(h.beta / 2),
            np.cos(h.beta / 2), np.sin(half_m), np.cos(half_m),
            np.sin(half_p), np.cos(half_p))


def hyperspherical_inverse(h: HyperSpherical):
    """Cartesian point from (r, theta, alpha, beta, gamma); angles may be arrays."""
    st, ct, sb, cb, sm, cm, sp, cp = _angle_trig(h)
    r = h.r
    return (r * ct, r * st * sb * sm, r * st * sb * cm, r * st * cb * sp,
            r * st * cb * cp)


def angular_jacobian(h: HyperSpherical):
    """Rows d x_m / d (theta, beta, alpha, gamma) of the inverse map, the
    tangent frame of the radius-r sphere; the angles may be arrays."""
    st, ct, sb, cb, sm, cm, sp, cp = _angle_trig(h)
    r = h.r
    return [
        [-r * st, r * ct * sb * sm, r * ct * sb * cm,
         r * ct * cb * sp, r * ct * cb * cp],
        [0.0, r * st * cb * sm / 2, r * st * cb * cm / 2,
         -r * st * sb * sp / 2, -r * st * sb * cp / 2],
        [0.0, r * st * sb * cm / 2, -r * st * sb * sm / 2,
         r * st * cb * cp / 2, -r * st * cb * sp / 2],
        [0.0, -r * st * sb * cm / 2, r * st * sb * sm / 2,
         r * st * cb * cp / 2, -r * st * cb * sp / 2],
    ]


def inverse_jacobian(h: HyperSpherical):
    """Rows d x_m / d (r, theta, alpha, beta, gamma) of the inverse map."""
    st, ct, sb, cb, sm, cm, sp, cp = _angle_trig(h)
    theta, beta, alpha, gamma = angular_jacobian(h)
    return [[ct, st * sb * sm, st * sb * cm, st * cb * sp, st * cb * cp],
            theta, alpha, beta, gamma]
