"""Algebraic spectrum of the charge-dyon system, in exact rationals.

The hidden-symmetry representation is labeled by three half-integers
(mu1, mu2, mu3).  This module evaluates the quadratic, cubic and quartic
Casimir eigenvalues on a label triple, solves the constraints that force
mu2 = mu3 = T and mu1 = N/2 with N/2 - T a non-negative integer, and
produces the closed-form energy levels

    eps(N) = - mu0 e2^2 / (2 hbar^2 (N/2 + 2)^2).

It also closes the duality loop: an eight-dimensional oscillator level
E = hbar w (N + 4) fed through the ansatz (e2 = E/4) lands exactly on
eps = -mu0 w^2 / 8.  Every function here works in Fraction arithmetic;
nothing is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidQuantumNumbers, OrderingViolation
from .exact import rational_sqrt
from .params import UnitParams


def _half_integer(name: str, value) -> Fraction:
    """Coerce to Fraction and demand a non-negative half-integer."""
    try:
        v = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise InvalidQuantumNumbers(f"{name} must be rational, got {value!r}") from exc
    if v < 0:
        raise InvalidQuantumNumbers(f"{name} must be non-negative, got {v}")
    if (2 * v).denominator != 1:
        raise InvalidQuantumNumbers(f"{name} must be a half-integer, got {v}")
    return v


@dataclass(frozen=True)
class CasimirEigenvalues:
    """Casimir values of the rank-three hidden-symmetry algebra on a label triple."""
    mu1: Fraction
    mu2: Fraction
    mu3: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction


def casimir_eigenvalues(mu1, mu2, mu3) -> CasimirEigenvalues:
    """Evaluate C2, C3, C4 on the ordered half-integer triple mu1 >= mu2 >= mu3."""
    m1 = _half_integer("mu1", mu1)
    m2 = _half_integer("mu2", mu2)
    m3 = _half_integer("mu3", mu3)
    if not (m1 >= m2 >= m3):
        raise OrderingViolation(f"labels must satisfy mu1 >= mu2 >= mu3, got ({m1}, {m2}, {m3})")
    c2 = m1 * (m1 + 4) + m2 * (m2 + 2) + m3 * m3
    c3 = 48 * (m1 + 2) * (m2 + 1) * m3
    c4 = (m1 ** 2 * (m1 + 4) ** 2 + 6 * m1 * (m1 + 4)
          + m2 ** 2 * (m2 + 2) ** 2 + m3 ** 4 - 2 * m3 ** 2)
    return CasimirEigenvalues(m1, m2, m3, c2, c3, c4)


def constraint_factorization(mu2, mu3) -> Fraction:
    """The product (mu2^2 - mu3^2)((mu2+2)^2 - mu3^2).

    Eliminating T between the cubic-Casimir relation T(T+1) = (mu2+1) mu3
    and the quartic one mu2^2 (mu2+2)^2 + mu3^4 - 2 mu3^2 = 2 T^2 (T+1)^2
    leaves exactly this product, so admissible labels are its zeros; with
    mu3 <= mu2 the only root is mu3 = mu2.
    """
    m2 = Fraction(mu2)
    m3 = Fraction(mu3)
    return (m2 * m2 - m3 * m3) * ((m2 + 2) ** 2 - m3 * m3)


@dataclass(frozen=True)
class ConstraintSolution:
    """Labels admitted at isospin T: mu2 = mu3 = T and mu1 = N/2 >= T."""
    T: Fraction
    mu2: Fraction
    mu3: Fraction

    def admissible_mu1(self, count: int) -> list[Fraction]:
        """First `count` admissible mu1 values T, T+1, T+2, ..."""
        return [self.T + k for k in range(count)]

    def admissible_N(self, count: int) -> list[int]:
        """First `count` admissible principal numbers N = 2 mu1."""
        return [int(2 * m) for m in self.admissible_mu1(count)]


def solve_constraints(T) -> ConstraintSolution:
    """Resolve the label constraints at isospin T.

    The cubic Casimir forces T(T+1) = (mu2+1) mu3 and the quartic one
    then factors (see constraint_factorization), leaving mu3 = mu2 = T.
    """
    t = _half_integer("T", T)
    sol = ConstraintSolution(T=t, mu2=t, mu3=t)
    assert constraint_factorization(sol.mu2, sol.mu3) == 0
    assert t * (t + 1) == (sol.mu2 + 1) * sol.mu3
    return sol


@dataclass(frozen=True)
class SpectrumLevel:
    """One bound level: isospin T, principal number N, exact energy."""
    T: Fraction
    N: int
    energy: Fraction

    @property
    def mu1(self) -> Fraction:
        return Fraction(self.N, 2)

    def casimirs(self) -> CasimirEigenvalues:
        return casimir_eigenvalues(self.mu1, self.T, self.T)


def level_energy(T, N, params: UnitParams | None = None) -> Fraction:
    """Exact energy -mu0 e2^2 / (2 hbar^2 (N/2+2)^2) of the level (T, N).

    Raises InvalidQuantumNumbers unless N/2 >= T with N/2 - T an integer.
    """
    p = params or UnitParams()
    t = _half_integer("T", T)
    if not isinstance(N, int) or N < 0:
        raise InvalidQuantumNumbers(f"N must be a non-negative integer, got {N!r}")
    half_n = Fraction(N, 2)
    if half_n < t:
        raise InvalidQuantumNumbers(f"need N/2 >= T, got N/2 = {half_n} < T = {t}")
    if (half_n - t).denominator != 1:
        raise InvalidQuantumNumbers(f"need N/2 - T integer, got {half_n - t}")
    return -p.mu0 * p.e2 ** 2 / (2 * p.hbar ** 2 * (half_n + 2) ** 2)


def energy_levels(T, count: int, params: UnitParams | None = None) -> list[SpectrumLevel]:
    """The lowest `count` levels at isospin T, exact and strictly increasing."""
    if count < 1:
        raise InvalidQuantumNumbers(f"count must be >= 1, got {count}")
    t = _half_integer("T", T)
    levels = []
    for n in solve_constraints(t).admissible_N(count):
        levels.append(SpectrumLevel(T=t, N=n, energy=level_energy(t, n, params)))
    return levels


def casimir_hamiltonian_residuals(T, N, params: UnitParams | None = None):
    """Residuals of the three Casimir-through-Hamiltonian identities on a level.

    On the level (T, N) the Casimirs, evaluated on the labels
    (N/2, T, T), must agree with their expressions through the energy:

        C2 = mu0 e2^2 / (2 hbar^2 (-eps)) + 2 T(T+1) - 4,
        C3 = 48 sqrt(mu0 e2^2 / (2 hbar^2 (-eps))) T(T+1),
        C4 = C2^2 + 6 C2 - 4 C2 T(T+1) - 12 T(T+1) + 6 T(T+1)^2.

    The square root is exact: its argument is (N/2 + 2)^2 for any rational
    parameter set, because eps itself carries the parameters.  Returns the
    three differences, each exactly zero when the spectrum formula holds.
    """
    p = params or UnitParams()
    t = _half_integer("T", T)
    eps = level_energy(t, N, p)
    ev = casimir_eigenvalues(Fraction(N, 2), t, t)
    tt = t * (t + 1)
    kepler = p.mu0 * p.e2 ** 2 / (2 * p.hbar ** 2 * (-eps))
    r2 = ev.c2 - (kepler + 2 * tt - 4)
    root = rational_sqrt(kepler)
    if root is None:
        raise ValueError(f"{kepler} is not a perfect square")
    r3 = ev.c3 - 48 * root * tt
    r4 = ev.c4 - (ev.c2 ** 2 + 6 * ev.c2 - 4 * ev.c2 * tt - 12 * tt + 6 * tt ** 2)
    return r2, r3, r4


@dataclass(frozen=True)
class ClosureResult:
    """Both paths around the duality square for one oscillator level."""
    N: int
    omega: Fraction
    oscillator_energy: Fraction
    coupling: Fraction
    level: Fraction
    ansatz: Fraction
    passed: bool


def duality_closure_check(N: int, omega, params: UnitParams | None = None) -> ClosureResult:
    """Check that the duality square closes exactly on oscillator level N.

    Path one: E = hbar w (N + 4), e2 = E/4, then the bound-level formula
    at mu1 = N/2 with that coupling.  Path two: the ansatz value
    eps = -mu0 w^2/8 directly.  The two rationals must be equal.
    """
    p = params or UnitParams()
    w = Fraction(omega)
    if not isinstance(N, int) or N < 0:
        raise InvalidQuantumNumbers(f"N must be a non-negative integer, got {N!r}")
    if w < 0:
        raise ValueError(f"omega must be non-negative, got {w}")
    energy = p.hbar * w * (N + 4)
    coupling = energy / 4
    if w == 0:
        level = Fraction(0)  # free limit: no binding, both paths vanish
    else:
        mapped = UnitParams(hbar=p.hbar, mu0=p.mu0, e2=coupling)
        level = level_energy(Fraction(N, 2), N, mapped)
    ansatz = -p.mu0 * w * w / 8
    return ClosureResult(N=N, omega=w, oscillator_energy=energy, coupling=coupling,
                         level=level, ansatz=ansatz, passed=(level == ansatz))
