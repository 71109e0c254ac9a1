"""Topological charge of the monopole field over the four-sphere at fixed r.

The volume factor of the dual cancels against the surface measure, so the
integrand in the four angles is a low-degree trig polynomial.  Gauss-Legendre
in cos(theta) and cos(beta) plus uniform nodes in the two periodic angles
integrate it exactly once every node count reaches EXACT_NODES, whose
docstring gives the derivation.  The reported error estimate is a truncation
estimate: 0 at or above those counts, otherwise the distance to the exact
grid.  It has no rounding term.  The nodes are pulled back through the
same map and Jacobian rows (transforms.sphere_point, sphere_frame) that the
pointwise field rows use, from one evaluation of the angles' sin and cos.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .exact import CHART_A, ScalarExpr
from .gauge import field_tensor
from .transforms import HyperSpherical, angle_trig, sphere_frame, sphere_point


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts in (theta, beta, alpha, gamma) and the sphere radius."""
    nodes: tuple[int, int, int, int] = (16, 16, 8, 8)
    radius: float = 1.0


@dataclass(frozen=True)
class ChargeResult:
    """Charge q, its three generator components and a truncation estimate.

    estimated_error is |Q(n) - Q(max(n, EXACT_NODES))| with the maximum
    taken count by count, hence exactly 0 when every node count is at or
    above EXACT_NODES.  It bounds truncation only; rounding in the sums is
    not included.
    """
    total: float
    components: tuple[float, float, float]
    radius: float
    nodes: tuple[int, int, int, int]
    estimated_error: float


EXACT_NODES = (2, 1, 1, 1)
"""Node counts in (theta, beta, alpha, gamma) at which the quadrature is exact.

For each generator a, on both charts and at every r, the summed density is
(1/2) eps F F = sqrt(g) F^a_ij F^a_ij = (4/r^4) sqrt(g)
= (1/2) sin^3(theta) sin(beta).  The steps are self-duality *F = F on the
angular block, the ff-contraction identity F^a_ij F^b_ij = (4/r^4) delta_ab,
and sqrt(g) = r^4 sin^3(theta) sin(beta) / 8 (gauge.sqrt_det_metric_closed).
The 1/sin factors in the Gauss-Legendre weights leave (1/2) sin^2(theta) =
(1 - cos^2(theta)) / 2: degree 2 in cos(theta), degree 0 in cos(beta), and
constant in alpha and gamma.  n-point Gauss-Legendre is exact through
degree 2n - 1 and n periodic midpoint nodes are exact below trigonometric
degree n, so (2, 1, 1, 1) nodes suffice.

Self-duality and the ff-contraction identity are proved exactly (field
suite: field/self-duality, field/ff-contraction), and so is the closed
volume factor, in tests: det[d x / d(theta, beta, alpha, gamma); x/r]
equals it as a trig polynomial on the same map and Jacobian rows.
"""


def _compile(e: ScalarExpr):
    """ScalarExpr to a vectorized evaluator on (xs, r, axis) arrays."""
    terms = []
    for (m, rp, ap), c in e.items():
        if c.b != 0:
            raise ValueError("field coefficients must be real")
        terms.append((c.a / c.d, m, rp, ap))

    def fn(xs, r, axis):
        out = np.zeros_like(r)
        for coeff, m, rp, ap in terms:
            t = np.full_like(r, coeff)
            for i, mi in enumerate(m):
                if mi:
                    t = t * xs[i] ** mi
            if rp:
                t = t * r ** float(rp)
            if ap:
                t = t * axis ** float(ap)
            out += t
        return out

    return fn


def _angular_nodes(spec: QuadratureSpec):
    n1, n2, n3, n4 = spec.nodes
    t, wt = np.polynomial.legendre.leggauss(n1)
    s, ws = np.polynomial.legendre.leggauss(n2)
    theta = np.arccos(t)
    beta = np.arccos(s)
    wtheta = wt / np.sin(theta)
    wbeta = ws / np.sin(beta)
    alpha = (np.arange(n3) + 0.5) * (2 * pi / n3)
    gamma = (np.arange(n4) + 0.5) * (4 * pi / n4)
    walpha = np.full(n3, 2 * pi / n3)
    wgamma = np.full(n4, 4 * pi / n4)
    TH, BE, AL, GA = np.meshgrid(theta, beta, alpha, gamma, indexing="ij")
    W = (wtheta[:, None, None, None] * wbeta[None, :, None, None]
         * walpha[None, None, :, None] * wgamma[None, None, None, :])
    return TH.ravel(), BE.ravel(), AL.ravel(), GA.ravel(), W.ravel()


def _charge_once(spec: QuadratureSpec, chart: int) -> tuple[float, np.ndarray]:
    TH, BE, AL, GA, W = _angular_nodes(spec)
    trig = angle_trig(HyperSpherical(spec.radius, TH, AL, BE, GA))
    xs = sphere_point(spec.radius, *trig)
    rr = np.full(TH.shape, float(spec.radius))
    sign = 1.0 if chart == CHART_A else -1.0
    axis = rr + sign * xs[0]
    J = np.empty((TH.shape[0], 4, 5))
    for m, row in enumerate(sphere_frame(spec.radius, *trig)):
        for n, v in enumerate(row):
            J[:, m, n] = v / 2
    comps = []
    for a in (1, 2, 3):
        F = field_tensor(a, chart)
        Fc = np.zeros((TH.shape[0], 5, 5))
        for i in range(5):
            for j in range(i + 1, 5):
                v = _compile(F[i][j])(xs, rr, axis)
                Fc[:, i, j] = v
                Fc[:, j, i] = -v
        Fb = np.matmul(J, np.matmul(Fc, J.swapaxes(1, 2)))
        # (1/2) eps^{mnrs} F_rs F_mn for antisymmetric F; the volume factor
        # of the dual cancels against the measure, leaving a pure angular
        # integral.
        dens = 4.0 * (Fb[:, 0, 1] * Fb[:, 2, 3]
                      - Fb[:, 0, 2] * Fb[:, 1, 3]
                      + Fb[:, 0, 3] * Fb[:, 1, 2])
        comps.append(float(np.sum(W * dens)) / (32 * pi ** 2))
    comps = np.array(comps)
    return float(comps.sum()), comps


def topological_charge(spec: QuadratureSpec | None = None,
                       chart: int = CHART_A) -> ChargeResult:
    """Surface integral of the dual pairing, with a truncation estimate.

    The estimate is 0 when every node count is at or above EXACT_NODES and
    needs no second grid.  Below that, the requested grid is compared with
    the one raised count by count to EXACT_NODES; that grid is exact, so the
    difference is the truncation defect up to rounding.
    """
    spec = spec or QuadratureSpec()
    total, comps = _charge_once(spec, chart)
    exact_nodes = tuple(max(n, m) for n, m in zip(spec.nodes, EXACT_NODES))
    error = 0.0
    if exact_nodes != tuple(spec.nodes):
        exact_total, _ = _charge_once(QuadratureSpec(exact_nodes, spec.radius),
                                      chart)
        error = abs(exact_total - total)
    return ChargeResult(
        total=total,
        components=tuple(comps),
        radius=spec.radius,
        nodes=spec.nodes,
        estimated_error=error,
    )
