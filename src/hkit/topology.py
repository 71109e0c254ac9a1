"""Topological charge of the monopole field over the four-sphere.

The charge of generator a is q^a = (1 / 32 pi^2) times the integral of
4 (F_tb F_ag - F_ta F_bg + F_tg F_ba) over theta, beta in [0, pi], alpha in
[0, 2 pi] and gamma in [0, 4 pi], the angular components of the first-patch
field in the (theta, beta, alpha, gamma) orientation.  The volume factor of
the dual cancels against the surface measure, so the integrand is a trig
polynomial.  It is built from the angular listing of F
(gauge._ANGULAR_LISTING), which field/angular-listing proves equal to the
pulled-back field with r a variable; the listing has no r.

`charge_components` integrates that polynomial exactly, term by term, by
the Wallis rules.  `listing_quadrature` sums the same density on
Gauss-Legendre nodes in cos(theta) and cos(beta) and midpoint nodes in alpha
and gamma, the float cross-check whose distance to the exact value is the
measured truncation plus rounding defect of a node grid.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import pi, prod

import numpy as np

from .gauge import listed_component
from .transforms import IntPoly

# The density's products of listed components, with their signs.
_PAIRINGS = ((1, ("theta", "beta"), ("alpha", "gamma")),
             (-1, ("theta", "alpha"), ("beta", "gamma")),
             (1, ("theta", "gamma"), ("beta", "alpha")))

# (sin, cos) variables of theta, beta and alpha in the density's IntPoly,
# with the length of each range in units of pi.
_RANGES = ((0, 1, 1), (2, 3, 1), (4, 5, 2))


def _density(a: int, st, factor):
    """Four times the charge density of generator a: the listed components
    are 4 F, so the sum of their pairings is 16 (F_tb F_ag - ...)."""
    return sum(s * listed_component(a, *mn, st, factor)
               * listed_component(a, *kl, st, factor)
               for s, mn, kl in _PAIRINGS)


def _wallis(m: int, n: int, periods: int) -> tuple[Fraction, int]:
    """The integral of sin^m cos^n over [0, periods pi], periods 1 or 2, as
    (c, k) for c pi^k; m, n >= 0, as IntPoly ** takes no negative power."""
    if n % 2 or (periods == 2 and m % 2):
        return Fraction(0), 0
    c = Fraction(prod(range(m - 1, 0, -2)) * prod(range(n - 1, 0, -2)),
                 prod(range(m + n, 0, -2)))
    if m % 2:
        return 2 * c, 0
    return periods * c, 1


def charge_components() -> tuple[Fraction, Fraction, Fraction]:
    """q^a for a = 1, 2, 3, integrated exactly from the angular listing.

    Each term of the density, a product of powers of the sin and cos of
    theta, beta and alpha, integrates to a rational multiple of a power of
    pi; the density is free of gamma, whose range contributes 4 pi.  Raises
    ValueError when a sum is not a rational multiple of pi^2, so that q^a
    would not be rational.
    """
    st, ct, sb, cb, sa, ca = IntPoly.variables(6)
    factor = {"sin a": sa, "cos a": ca, "sin b": sb, "cos b": cb}
    out = []
    for a in (1, 2, 3):
        total: Counter = Counter()
        for e, c in _density(a, st, factor).terms.items():
            value, power = Fraction(4 * c), 1
            for sin_i, cos_i, periods in _RANGES:
                v, p = _wallis(e[sin_i], e[cos_i], periods)
                value, power = value * v, power + p
            total[power] += value
        if any(v for p, v in total.items() if p != 2):
            raise ValueError(f"q^{a} is not rational: {dict(total)}")
        # 4 times the density, over 32 pi^2.
        out.append(total[2] / 128)
    return tuple(out)


def listing_quadrature(nodes) -> tuple[float, float, float]:
    """Q^a, the density of `charge_components` summed on node counts
    (theta, beta, alpha, gamma): Gauss-Legendre in cos(theta) and cos(beta),
    whose 1/sin weights undo the change of variable, and midpoint nodes in
    the periodic alpha and gamma."""
    n1, n2, n3, n4 = nodes
    t, wt = np.polynomial.legendre.leggauss(n1)
    s, ws = np.polynomial.legendre.leggauss(n2)
    theta, beta = np.arccos(t), np.arccos(s)
    alpha = (np.arange(n3) + 0.5) * (2 * pi / n3)
    gamma = (np.arange(n4) + 0.5) * (4 * pi / n4)
    TH, BE, AL, _ = np.meshgrid(theta, beta, alpha, gamma, indexing="ij")
    W = ((wt / np.sin(theta))[:, None, None, None]
         * (ws / np.sin(beta))[None, :, None, None]
         * (2 * pi / n3) * (4 * pi / n4))
    factor = {"sin a": np.sin(AL), "cos a": np.cos(AL),
              "sin b": np.sin(BE), "cos b": np.cos(BE)}
    st = np.sin(TH)
    return tuple(float(np.sum(W * _density(a, st, factor))) / (128 * pi ** 2)
                 for a in (1, 2, 3))
