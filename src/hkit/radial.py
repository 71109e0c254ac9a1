"""Finite-difference eigensolvers for the dual pair of radial equations.

The oscillator equation in D dimensions and the Coulomb equation in
d = D/2 + 1 dimensions are both reduced by R = x^{-(dim-1)/2} chi to

    -chi'' + [Lambda / x^2 + (2m/hbar^2) V(x)] chi = (2m/hbar^2) E chi,

with Lambda = ell (ell + dim - 2) + (dim - 1)(dim - 3)/4, and solved on a
uniform grid as a symmetric tridiagonal eigenproblem T.  Eigenvalues are
Richardson-refined from two grids, n and 2n + 1 points; a correction
above sqrt(_RTOL) raises GridTooCoarse.

On each grid, a direct solve on a small pilot grid of the same box gives
every level a shift and a start vector.  T minus the shift is factored
once in O(n), and two inverse-iteration solves give the eigenvector.
The eigenvalue is its Rayleigh quotient in difference form, which is not
held to the eps ||T|| ~ 1e-8 floor that bisection has on fine grids.  A
residual interval per level and one Sturm count certify that value j is
the j-th level; a solve whose levels cannot be certified raises (Parlett,
The Symmetric Eigenvalue Problem, ch. 4).

The box is sized so that the WKB barrier action beyond the outer
turning point suppresses the Dirichlet truncation below the eigenvalue
tolerance; the classical turning point alone leaves errors far above
1e-6 for Coulomb tails.

The duality map r = u^2 sends oscillator levels to Coulomb problems level
by level, and the substitution check resamples a solved oscillator
eigenfunction onto r = u^2 and measures how well it satisfies the Coulomb
equation with the mapped energy and coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridTooCoarse, InterpolationFailure

_ACTION_TARGET = 14.0   # exp(-2*14) ~ 7e-13 tail leakage at the wall
_BOX_CAP_FACTOR = 60.0  # hard stop for the wall search, in turning-point units
_PILOT_POINTS = 768     # interior points of every pilot solve
_INVERSE_STEPS = 2      # inverse-iteration solves per level
_CERT_ULPS = 16.0       # rounding margin of the level certificate, in eps ||T||
_RTOL = 1e-6            # relative eigenvalue tolerance of the Richardson check
_SCAN = np.geomspace(1e-6, 1e7, 1400)  # turning-point scan, in units of a length

OSCILLATOR = "oscillator"
COULOMB = "coulomb"
MODIFIED = "modified"


@dataclass(frozen=True)
class RadialProblem:
    """One radial eigenproblem: kind, dimension, angular momentum, potential data.

    `dim` is D for the oscillator and modified kinds, d for the Coulomb
    kind; `ell` is the global angular momentum L (integer) or its dual
    l = L/2 (half-integers welcome).  `box` overrides the automatic wall
    placement; `n_points` is the coarse interior grid size.
    """
    kind: str
    dim: float
    ell: float
    omega: float = 0.0
    e2: float = 0.0
    coeffs: tuple[float, ...] = ()
    mass: float = 1.0
    hbar: float = 1.0
    n_points: int = 4096
    box: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (OSCILLATOR, COULOMB, MODIFIED):
            raise ValueError(f"unknown kind {self.kind!r}")
        for name in ("dim", "ell", "omega", "e2", "mass", "hbar", "box"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"coeffs must be finite, got {self.coeffs}")
        if self.dim <= 2:
            raise ValueError(f"dimension must exceed 2, got {self.dim}")
        if self.ell < 0:
            raise ValueError(f"angular momentum must be non-negative, got {self.ell}")
        if self.kind == OSCILLATOR and float(self.ell) != int(self.ell):
            raise ValueError(f"oscillator L must be an integer, got {self.ell}")
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if self.n_points < 64:
            raise ValueError(f"n_points must be at least 64, got {self.n_points}")
        if self.kind == OSCILLATOR and self.omega < 0:
            raise ValueError(f"omega must be non-negative, got {self.omega}")
        if self.kind == COULOMB and self.e2 <= 0:
            raise ValueError(f"coulomb coupling must be positive, got {self.e2}")
        if self.kind == MODIFIED:
            if len(self.coeffs) < 2:
                raise ValueError("modified potential needs at least (c0, c1)")
            if self.coeffs[-1] <= 0:
                raise ValueError("modified potential must confine: leading coefficient > 0")
        if self.box is not None and self.box <= 0:
            raise ValueError(f"box must be positive, got {self.box}")

    @staticmethod
    def oscillator(D: int, L: int, omega: float, *, mass: float = 1.0,
                   hbar: float = 1.0, n_points: int = 4096,
                   box: float | None = None) -> "RadialProblem":
        return RadialProblem(OSCILLATOR, float(D), float(L), omega=float(omega),
                             mass=mass, hbar=hbar, n_points=n_points, box=box)

    @staticmethod
    def coulomb(d: float, l: float, e2: float, *, mass: float = 1.0,
                hbar: float = 1.0, n_points: int = 4096,
                box: float | None = None) -> "RadialProblem":
        return RadialProblem(COULOMB, float(d), float(l), e2=float(e2),
                             mass=mass, hbar=hbar, n_points=n_points, box=box)

    @staticmethod
    def modified(coeffs, D: int = 8, L: int = 0, *, mass: float = 1.0,
                 hbar: float = 1.0, n_points: int = 4096,
                 box: float | None = None) -> "RadialProblem":
        return RadialProblem(MODIFIED, float(D), float(L),
                             coeffs=tuple(float(c) for c in coeffs),
                             mass=mass, hbar=hbar, n_points=n_points, box=box)


def effective_lambda(dim: float, ell: float) -> float:
    """Centrifugal strength of the reduced equation."""
    return ell * (ell + dim - 2) + (dim - 1) * (dim - 3) / 4.0


def oscillator_level(problem: RadialProblem, n_r: int) -> float:
    """Closed-form oscillator level hbar w (2 n_r + L + D/2)."""
    return problem.hbar * problem.omega * (2 * n_r + problem.ell + problem.dim / 2)


def coulomb_level(problem: RadialProblem, n_r: int) -> float:
    """Closed-form bound level -m e2^2 / (2 hbar^2 (n_r + l + (d-1)/2)^2)."""
    n = n_r + problem.ell + (problem.dim - 1) / 2
    return -problem.mass * problem.e2 ** 2 / (2 * problem.hbar ** 2 * n * n)


def _scaled_potential(problem: RadialProblem):
    """(2m/hbar^2) V(x) as a vectorized callable."""
    scale = 2 * problem.mass / problem.hbar ** 2
    if problem.kind == OSCILLATOR:
        half_mw2 = 0.5 * problem.mass * problem.omega ** 2
        return lambda x: scale * half_mw2 * x * x
    if problem.kind == COULOMB:
        e2 = problem.e2
        return lambda x: scale * (-e2) / x
    coeffs = problem.coeffs[::-1]
    return lambda x: scale * np.polyval(coeffs, x * x)


def _length(problem: RadialProblem) -> float:
    """Where hbar^2 / (m x^2) meets the potential (its shortest such term)."""
    h2m = problem.hbar ** 2 / problem.mass
    if problem.kind == OSCILLATOR:
        return math.sqrt(problem.hbar / (problem.mass * problem.omega))
    if problem.kind == COULOMB:
        return h2m / problem.e2
    return min((h2m / c) ** (1.0 / (2 * k + 2))
               for k, c in enumerate(problem.coeffs) if k > 0 and c > 0)


def _auto_box(problem: RadialProblem, scaled_top: float) -> float:
    """Wall position: outer turning point plus enough barrier action.

    `scaled_top` is (2m/hbar^2) E of the least-bound retained level.  The
    wall goes where the WKB action integral of the effective potential
    past the outer turning point reaches _ACTION_TARGET, so the truncated
    tail cannot shift eigenvalues at the tolerances used here.  The outer
    turning point is the last sign change on _SCAN, or else on _SCAN in
    units of `_length(problem)`; if neither brackets one, ValueError.
    """
    lam = effective_lambda(problem.dim, problem.ell)
    w = _scaled_potential(problem)

    def forbidden(x):
        return lam / (x * x) + w(x) - scaled_top

    for xs in (_SCAN, _length(problem) * _SCAN):
        inside = np.nonzero(forbidden(xs) < 0)[0]
        if inside.size and inside[-1] < xs.size - 1:
            break
    else:
        raise ValueError(f"no outer turning point on the wall scan "
                         f"[{xs[0]:.0e}, {xs[-1]:.0e}]")
    lo = xs[inside[-1]]
    hi = xs[inside[-1] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if forbidden(mid) < 0:
            lo = mid
        else:
            hi = mid
    turn = hi
    # Trapezoid steps of sqrt(w_eff - lambda_top) past the turning point,
    # up to the first where the action target is met or the cap is passed.
    # cumsum adds the steps one at a time, as a running x += step would;
    # its rounding drifts far less than one step, so `count` steps pass
    # the cap.
    step = turn / 400.0
    cap = _BOX_CAP_FACTOR * turn
    count = int((cap - turn) / step) + 2
    x = np.cumsum(np.concatenate(([turn], np.full(count, step))))
    cur = np.sqrt(np.maximum(forbidden(x[1:]), 0.0))
    action = np.cumsum(0.5 * (np.concatenate(([0.0], cur[:-1])) + cur) * step)
    stop = np.argmax(~((action < _ACTION_TARGET) & (x[1:] < cap)))
    return max(float(x[stop + 1]), 1.5 * turn)


def _operator(lam: float, wfun, box: float, n: int):
    """Step, interior nodes and potential part of the reduced operator.

    On n interior points of (0, box) the operator is the symmetric
    tridiagonal T with diagonal 2/h^2 + pot and off-diagonal -1/h^2.
    """
    h = box / (n + 1)
    x = h * np.arange(1, n + 1)
    return h, x, lam / (x * x) + wfun(x)


def _pilot_eigen(lam: float, wfun, box: float, n: int, k: int):
    """Lowest k eigenpairs on n points, by bisection over the whole spectrum.

    LAPACK stebz bisects each level from the Gershgorin interval to an
    absolute tolerance of about eps ||T||, and stein finds the vectors.
    That costs far more than the O(n) factorizations of `_fd_eigen`, so it
    runs only on the small pilot grid.
    """
    from scipy.linalg import eigh_tridiagonal  # here, so only radial solves load scipy

    h, x, pot = _operator(lam, wfun, box, n)
    vals, vecs = eigh_tridiagonal(2.0 / (h * h) + pot, np.full(n - 1, -1.0 / (h * h)),
                                  select="i", select_range=(0, k - 1))
    return x, vals, vecs


def _fd_eigen(lam: float, wfun, box: float, n: int, k: int):
    """Lowest k scaled eigenvalues and vectors of the reduced operator.

    A pilot solve of the same box on min(n, _PILOT_POINTS) points gives
    each level j a shift sigma_j and, interpolated onto the n nodes, a
    start vector.  T - sigma_j is factored once (LAPACK gttrf) and
    _INVERSE_STEPS inverse-iteration solves (gttrs) follow.  The
    eigenvalue is the Rayleigh quotient in difference form,

        (sum_i (v_{i+1} - v_i)^2 / h^2 + sum_i pot_i v_i^2) / sum_i v_i^2

    with v_0 = v_{n+1} = 0, so the 2/h^2 diagonal never cancels against
    the off-diagonal and the value is not held to eps ||T|| the way
    bisection is.  `_certify` then proves that value j is the j-th
    lowest eigenvalue of T, or raises.  Returns the nodes, the values, the
    vectors and each pair's matrix residual from `_certify`.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs  # here, so only radial solves load scipy

    h, x, pot = _operator(lam, wfun, box, n)
    diag = 2.0 / (h * h) + pot
    off = np.full(n - 1, -1.0 / (h * h))
    xp, shifts, starts = _pilot_eigen(lam, wfun, box, min(n, _PILOT_POINTS), k)
    knots = np.concatenate(([0.0], xp, [box]))
    vals = np.empty(k)
    vecs = np.empty((n, k), order="F")
    for j in range(k):
        v = vecs[:, j:j + 1]  # a view: gttrs overwrites it in place
        v[:, 0] = np.interp(x, knots, np.concatenate(([0.0], starts[:, j], [0.0])))
        dl, d, du, du2, ipiv, _ = dgttrf(off, diag - shifts[j], off, overwrite_d=1)
        for _ in range(_INVERSE_STEPS):
            dgttrs(dl, d, du, du2, ipiv, v, overwrite_b=1)
            v *= 1.0 / _norm(v)
        del dl, d, du, du2, ipiv  # before the next level's factors are made
        vals[j] = _rayleigh(v[:, 0], pot, h)
    return x, vals, vecs, _certify(diag, off, vals, vecs)


def _norm(v: np.ndarray) -> float:
    """2-norm by a numpy reduction: BLAS dot would wake OpenBLAS threads."""
    return math.sqrt(float(np.sum(v * v)))


def _rayleigh(v: np.ndarray, pot: np.ndarray, h: float) -> float:
    """v^T T v / v^T v with the kinetic part summed as squared differences."""
    dv = np.diff(v, prepend=0.0, append=0.0)
    kinetic = float(np.sum(dv * dv)) / (h * h)
    return (kinetic + float(np.sum(pot * v * v))) / float(np.sum(v * v))


def _certify(diag, off, vals, vecs) -> np.ndarray:
    """Prove vals[j] is the j-th lowest eigenvalue of T, or raise; return
    the residuals rho_j.

    For symmetric T some eigenvalue lies within ||(T - r) v|| / ||v|| of
    r, so each vals[j] owns the interval vals[j] +- (rho_j ||T|| +
    margin), with rho_j from `_matrix_residuals`.  If the intervals are
    disjoint, T has at least k eigenvalues up to the top of the last one.
    One Sturm count (LAPACK stebz on the range (-2 ||T||, top + margin]
    with a tolerance that stops it before any bisection) then has to come
    to exactly k, so each interval holds exactly its own level.  The
    margin of _CERT_ULPS eps ||T|| covers the rounding of the residuals
    and of the count, which is exact for a matrix within a few eps ||T||
    of T.
    """
    from scipy.linalg.lapack import dstebz  # here, so only radial solves load scipy

    k = vals.size
    opscale = _opscale(diag, off)
    margin = _CERT_ULPS * np.finfo(float).eps * opscale
    rho = _matrix_residuals(diag, off, vals, vecs)
    radius = rho * opscale + margin
    lo, hi = vals - radius, vals + radius
    if np.all(np.isfinite(hi)) and np.all(hi[:-1] < lo[1:]):
        top = float(hi[-1]) + margin
        count = dstebz(diag, off, 1, -2.0 * opscale, top, 0, 0, 4.0 * opscale, "E")[0]
        if count == k:
            return rho
        problem = f"{count} eigenvalues at or below {top:.6g}, the top of level {k - 1}"
    else:
        problem = "the levels' residual intervals are not disjoint and finite"
    raise GridTooCoarse(f"pilot shifts on {diag.size} points did not single out the "
                        f"lowest {k} levels: {problem}")


def _opscale(diag, off) -> float:
    """max |diag| + 2 max |off|, an upper bound on ||T||_2."""
    return float(np.max(np.abs(diag)) + 2 * np.max(np.abs(off)))


def _matrix_residuals(diag, off, vals, vecs) -> np.ndarray:
    """||(T - lambda) v|| / (||T|| ||v||) per retained eigenpair."""
    opscale = _opscale(diag, off)
    out = np.empty(vals.size)
    for j in range(vals.size):
        v = vecs[:, j]
        tv = diag * v
        tv[:-1] += off * v[1:]
        tv[1:] += off * v[:-1]
        tv -= vals[j] * v
        out[j] = _norm(tv) / (opscale * _norm(v))
    return out


@dataclass(frozen=True)
class EigenResult:
    """Solved levels of one radial problem on the fine grid."""
    problem: RadialProblem
    box: float
    eigenvalues: np.ndarray        # Richardson-refined energies
    eigenvectors: np.ndarray       # (n_fine, k), L2-normalized columns
    grid: np.ndarray               # fine interior nodes
    residual_norms: np.ndarray     # matrix residuals per retained pair
    convergence: np.ndarray        # relative size of the Richardson correction


def _check_levels(levels: int) -> None:
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")


def _solve(problem: RadialProblem, levels: int, scaled_top: float) -> EigenResult:
    _check_levels(levels)
    lam = effective_lambda(problem.dim, problem.ell)
    wfun = _scaled_potential(problem)
    box = problem.box if problem.box is not None else _auto_box(problem, scaled_top)
    n = problem.n_points
    if levels > n // 4:
        raise ValueError(f"{levels} levels on {n} points will not resolve")
    escale = problem.hbar ** 2 / (2 * problem.mass)

    _, coarse, _, _ = _fd_eigen(lam, wfun, box, n, levels)
    nf = 2 * n + 1
    x, fine, vecs, rho = _fd_eigen(lam, wfun, box, nf, levels)
    refined = (4.0 * fine - coarse) / 3.0
    floor = np.max(np.abs(refined)) * 1e-9 + 1e-300
    conv = np.abs(fine - coarse) / (3.0 * np.maximum(np.abs(refined), floor))
    if np.any(conv > math.sqrt(_RTOL)):
        worst = int(np.argmax(conv))
        raise GridTooCoarse(
            f"level {worst}: Richardson correction {conv[worst]:.2e} exceeds "
            f"sqrt(rtol) = {math.sqrt(_RTOL):.2e}; raise n_points")
    return EigenResult(problem, box, refined * escale,
                       _normalize(vecs, box / (nf + 1)), x, rho, conv)


def _normalize(vecs: np.ndarray, h: float) -> np.ndarray:
    """Scale each column in place to unit grid L2 norm, first large entry positive."""
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        mag = np.abs(v)
        lead = int(np.argmax(mag > 1e-3 * np.max(mag)))
        v *= math.copysign(1.0, v[lead]) / math.sqrt(h * float(np.sum(v * v)))
    return vecs


def solve_oscillator(problem: RadialProblem, levels: int = 1) -> EigenResult:
    """Lowest `levels` oscillator energies, near hbar w (2 n_r + L + D/2)."""
    if problem.kind != OSCILLATOR:
        raise ValueError(f"need an oscillator problem, got {problem.kind!r}")
    if problem.omega == 0 and problem.box is None:
        raise ValueError("free oscillator (omega = 0) needs an explicit box")
    top = oscillator_level(problem, levels - 1) if problem.omega > 0 else 0.0
    scaled_top = 2 * problem.mass * top / problem.hbar ** 2
    return _solve(problem, levels, scaled_top)


def solve_coulomb(problem: RadialProblem, levels: int = 1) -> EigenResult:
    """Lowest `levels` bound Coulomb energies, near the inverse-square law."""
    if problem.kind != COULOMB:
        raise ValueError(f"need a coulomb problem, got {problem.kind!r}")
    _check_levels(levels)  # coulomb_level(problem, -1) divides by zero at d = 3, l = 0
    top = coulomb_level(problem, levels - 1)
    scaled_top = 2 * problem.mass * top / problem.hbar ** 2
    return _solve(problem, levels, scaled_top)


def solve_modified(problem: RadialProblem, levels: int = 1) -> EigenResult:
    """Lowest `levels` energies of an oscillator-like polynomial potential.

    The wall needs the top retained energy, which has no closed form
    here, so a coarse pilot solve bootstraps the box before the final
    run.
    """
    if problem.kind != MODIFIED:
        raise ValueError(f"need a modified problem, got {problem.kind!r}")
    _check_levels(levels)
    scale = 2 * problem.mass / problem.hbar ** 2
    if problem.box is None:
        lam, wfun = effective_lambda(problem.dim, problem.ell), _scaled_potential(problem)
        c1 = problem.coeffs[1] if problem.coeffs[1] > 0 else problem.coeffs[-1]
        w_eff = math.sqrt(2 * c1 / problem.mass)
        guess = scale * (problem.coeffs[0] + problem.hbar * w_eff
                         * (2 * (levels + 1) + problem.ell + problem.dim / 2))
        # Higher terms can lift the well above the harmonic guess: then
        # guess the floor of the well plus its rise over c0.
        xs = _length(problem) * _SCAN
        floor = float(np.min(lam / (xs * xs) + wfun(xs)))
        guess = max(guess, 2 * floor - scale * problem.coeffs[0])
        _, pilot, _ = _pilot_eigen(lam, wfun, _auto_box(problem, guess), _PILOT_POINTS, levels)
        pilot *= problem.hbar ** 2 / (2 * problem.mass)
        spacing = (pilot[-1] - pilot[0]) / max(levels - 1, 1)
        top = pilot[-1] + max(spacing, abs(pilot[-1]) * 0.1)
        problem = replace(problem, box=_auto_box(problem, scale * top))
    # box is set by now, so the top-energy argument below is never consulted
    return _solve(problem, levels, 0.0)


@dataclass(frozen=True)
class MappedLevel:
    """One source level pushed through r = u^2 onto its dual problem."""
    index: int
    source_value: float
    dual_problem: RadialProblem
    dual_index: int
    predicted: float


def duality_map(result: EigenResult) -> list[MappedLevel]:
    """Map a solved oscillator spectrum level-by-level onto its dual.

    Oscillator level E_n becomes the coupling e2 = E_n/4 of a Coulomb
    problem in d = D/2 + 1 dimensions with l = L/2, whose n-th bound level
    must sit at eps = -m w^2/8: one energy for every n, the trade of
    quantized coupling against fixed energy.
    """
    src = result.problem
    if src.kind != OSCILLATOR:
        raise ValueError(f"the duality map needs an oscillator source, got {src.kind!r}")
    predicted = -src.mass * src.omega ** 2 / 8.0
    out = []
    for n, energy in enumerate(result.eigenvalues):
        dual = RadialProblem.coulomb(src.dim / 2 + 1, src.ell / 2, float(energy) / 4.0,
                                     mass=src.mass, hbar=src.hbar,
                                     n_points=src.n_points)
        out.append(MappedLevel(n, float(energy), dual, n, predicted))
    return out


class _NotAKnotSpline:
    """Not-a-knot cubic spline through (x, y) for strictly increasing x.

    A step-by-step copy of ``scipy.interpolate.CubicSpline(x, y)`` on 1-D
    float data with four or more points: the same tridiagonal system for
    the knot slopes, solved by the same banded LAPACK call, the same
    Hermite coefficients, and values and derivatives summed in the order
    `PPoly` sums them.  So it returns the same bits without loading
    scipy.interpolate.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        from scipy.linalg import solve_banded  # here, so only radial solves load scipy

        n = x.size
        dx = np.diff(x)
        slope = np.diff(y) / dx
        ab = np.zeros((3, n))  # upper, main and lower diagonal
        b = np.empty(n)
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[0, 2:] = dx[:-1]
        ab[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        ab[1, 0] = dx[1]
        ab[0, 1] = d = x[2] - x[0]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        ab[1, -1] = dx[-2]
        ab[-1, -2] = d = x[-1] - x[-3]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        self.x, self.y = x, y
        self.ds = solve_banded((1, 1), ab, b.reshape(n, 1), overwrite_ab=True,
                               overwrite_b=True, check_finite=False).reshape(n)

    def __call__(self, xq: np.ndarray, nu: int = 0) -> np.ndarray:
        """Value (nu = 0) or derivative nu = 1, 2 of the spline at xq.

        Each point is taken on the interval x[i] <= xq < x[i + 1], clamped
        to the first and last interval, so x[-1] belongs to the last one.
        The coefficients are formed only on the intervals from the first
        to the last one that xq touches; elementwise, they are the bits
        that forming them on every interval would give.
        """
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        lo, hi = int(i.min()), int(i.max()) + 2
        i = i - lo
        x, y, ds = self.x[lo:hi], self.y[lo:hi], self.ds[lo:hi]
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (ds[:-1] + ds[1:] - 2 * slope) / dx
        # per interval, the coefficients of s^3, s^2, s, 1 with s = x - x[i]
        c3, c2, c1, c0 = (t / dx)[i], ((slope - ds[:-1]) / dx - t)[i], ds[i], y[i]
        s = xq - x[i]
        if nu == 0:
            return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
        if nu == 1:
            return c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0
        if nu == 2:
            return c2 * 2.0 + c3 * s * 6.0
        raise ValueError(f"derivative order must be 0, 1 or 2, got {nu}")


@dataclass(frozen=True)
class SubstitutionResult:
    """Residual of a resampled oscillator eigenfunction in the dual equation."""
    level: int
    eps: float
    e2: float
    rel_residual: float
    passed: bool
    window: tuple[float, float]
    n_samples: int


def substitution_residual_check(result: EigenResult, level: int = 0, *,
                                eps: float | None = None, e2: float | None = None,
                                tol: float = 1e-4) -> SubstitutionResult:
    """Resample a solved oscillator radial function onto r = u^2 and test it.

    The full radial function R(u) = u^{-(D-1)/2} chi(u) is interpolated
    as a function of r = u^2 by a not-a-knot cubic spline, which mirrors
    ``scipy.interpolate.CubicSpline`` bit for bit, and inserted into the
    dual equation

        R'' + (d-1)/r R' - l(l+d-2)/r^2 R + (2m/hbar^2)(eps + e2/r) R = 0

    with d = D/2 + 1, l = L/2 and, unless overridden, the ansatz values
    eps = -m w^2/8 and e2 = E/4 from the solved eigenvalue.  Reports the
    relative L2 residual over the classically relevant window.  Passing
    wrong (eps, e2) on purpose makes the residual jump by orders, which
    is used as the negative control.
    """
    prob = result.problem
    if prob.kind != OSCILLATOR:
        raise ValueError(f"need an oscillator eigenpair, got {prob.kind!r}")
    if not 0 <= level < result.eigenvectors.shape[1]:
        raise ValueError(f"level {level} not retained")
    energy = float(result.eigenvalues[level])
    if eps is None:
        eps = -prob.mass * prob.omega ** 2 / 8.0
    if e2 is None:
        e2 = energy / 4.0

    u = result.grid
    chi = result.eigenvectors[:, level]
    rad = chi * u ** (-(prob.dim - 1) / 2.0)
    r = u * u
    turn = math.sqrt(2 * energy / (prob.mass * prob.omega ** 2)) if prob.omega > 0 else u[-1]
    lo_u, hi_u = 0.25 * turn, 1.2 * turn
    mask = (u >= lo_u) & (u <= hi_u)
    if np.count_nonzero(mask) < 32:
        raise InterpolationFailure(
            f"window [{lo_u:.3g}, {hi_u:.3g}] holds too few grid points")
    spline = _NotAKnotSpline(r, rad)
    rw = r[mask]
    s0 = spline(rw)
    s1 = spline(rw, 1)
    s2 = spline(rw, 2)
    d = prob.dim / 2 + 1
    l = prob.ell / 2
    scale = 2 * prob.mass / prob.hbar ** 2
    resid = (s2 + (d - 1) / rw * s1 - l * (l + d - 2) / rw ** 2 * s0
             + scale * (eps + e2 / rw) * s0)
    drive = scale * (abs(eps) + e2 / rw) * np.abs(s0)
    rel = _norm(resid) / _norm(drive)
    if not np.isfinite(rel):
        raise InterpolationFailure("residual evaluation produced non-finite values")
    return SubstitutionResult(level=level, eps=float(eps), e2=float(e2),
                              rel_residual=rel, passed=(rel < tol),
                              window=(float(rw[0]), float(rw[-1])),
                              n_samples=int(rw.size))
