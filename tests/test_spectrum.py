"""Exact spectrum algebra: Casimir eigenvalues, label constraints, the
energy formula, and the closure of the energy-coupling swap."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkit.errors import InvalidQuantumNumbers, OrderingViolation
from hkit.params import UnitParams
from hkit.spectrum import (
    casimir_eigenvalues,
    casimir_hamiltonian_residuals,
    constraint_factorization,
    duality_closure_check,
    energy_levels,
    level_energy,
    solve_constraints,
)

half_integers = st.integers(0, 12).map(lambda k: Fraction(k, 2))


# ----- casimir eigenvalues ----------------------------------------------------

def test_casimir_spot_values():
    """Hand-computed values at small labels."""
    ev = casimir_eigenvalues(1, 1, 1)
    assert (ev.c2, ev.c3, ev.c4) == (9, 288, 63)
    ev = casimir_eigenvalues(0, 0, 0)
    assert (ev.c2, ev.c3, ev.c4) == (0, 0, 0)
    ev = casimir_eigenvalues(2, 1, 0)
    assert (ev.c2, ev.c3, ev.c4) == (15, 0, 225)
    ev = casimir_eigenvalues(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert ev.c2 == Fraction(15, 4)
    assert ev.c3 == 90
    assert ev.c4 == Fraction(315, 16)


def test_ordering_enforced():
    with pytest.raises(OrderingViolation):
        casimir_eigenvalues(1, 2, 0)
    with pytest.raises(OrderingViolation):
        casimir_eigenvalues(1, 1, 2)


def test_half_integer_lattice_enforced():
    with pytest.raises(InvalidQuantumNumbers):
        casimir_eigenvalues(Fraction(1, 3), 0, 0)
    with pytest.raises(InvalidQuantumNumbers):
        casimir_eigenvalues(-1, -1, -1)


# ----- constraints -------------------------------------------------------------

@given(t=half_integers)
def test_constraint_solution(t):
    sol = solve_constraints(t)
    assert sol.mu2 == sol.mu3 == t
    assert constraint_factorization(sol.mu2, sol.mu3) == 0
    assert t * (t + 1) == (sol.mu2 + 1) * sol.mu3
    enn = sol.admissible_N(5)
    assert [Fraction(n, 2) - t for n in enn] == [0, 1, 2, 3, 4]


def test_factorization_rejects_off_lattice():
    assert constraint_factorization(1, 2) != 0
    assert constraint_factorization(2, 2) == 0
    assert constraint_factorization(0, 2) == 0  # second factor root


# ----- energy formula ----------------------------------------------------------

def test_level_energy_unit_values():
    assert level_energy(0, 0) == Fraction(-1, 8)
    assert level_energy(Fraction(1, 2), 1) == Fraction(-2, 25)
    assert level_energy(Fraction(1, 2), 3) == Fraction(-2, 49)
    assert level_energy(1, 2) == Fraction(-1, 18)


def test_level_energy_scales_with_units():
    p = UnitParams(hbar=Fraction(2), mu0=Fraction(3), e2=Fraction(5))
    assert level_energy(0, 0, p) == -Fraction(3) * 25 / (2 * 4 * 4)


def test_level_energy_validates_lattice():
    with pytest.raises(InvalidQuantumNumbers):
        level_energy(1, 0)  # N/2 < T
    with pytest.raises(InvalidQuantumNumbers):
        level_energy(0, 1)  # N/2 - T not integral
    with pytest.raises(InvalidQuantumNumbers):
        level_energy(0, -2)


def test_energy_levels_are_increasing():
    levels = energy_levels(Fraction(3, 2), 10)
    energies = [lv.energy for lv in levels]
    assert all(e < 0 for e in energies)
    assert energies == sorted(energies)
    assert levels[0].N == 3
    assert levels[1].N == 5


# ----- casimirs through the hamiltonian ----------------------------------------

@settings(max_examples=40)
@given(t=half_integers, k=st.integers(0, 4))
def test_hamiltonian_consistency(t, k):
    n = int(2 * (t + k))
    assert casimir_hamiltonian_residuals(t, n) == (0, 0, 0)


def test_hamiltonian_consistency_generic_units():
    p = UnitParams(hbar=Fraction(3, 2), mu0=Fraction(2), e2=Fraction(5, 7))
    for t in (Fraction(0), Fraction(1, 2), Fraction(3)):
        for k in range(3):
            n = int(2 * (t + k))
            assert casimir_hamiltonian_residuals(t, n, p) == (0, 0, 0)


def test_hamiltonian_consistency_past_float_precision():
    """The square root of (N/2 + 2)^2 is taken in integers: at
    N/2 + 2 = 2^53 + 3 a float root would round and miss the square."""
    assert casimir_hamiltonian_residuals(0, 2 * (2 ** 53 + 1)) == (0, 0, 0)


# ----- duality closure ----------------------------------------------------------

@settings(max_examples=60)
@given(n=st.integers(0, 40),
       w=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2, 7)]))
def test_duality_closure(n, w):
    res = duality_closure_check(n, w)
    assert res.passed
    assert res.oscillator_energy == UnitParams().hbar * w * (n + 4)
    assert res.coupling == res.oscillator_energy / 4
    assert res.ansatz == -UnitParams().mu0 * w * w / 8
    assert res.level == res.ansatz


def test_duality_closure_free_limit():
    res = duality_closure_check(3, 0)
    assert res.passed and res.level == 0


def test_duality_closure_rejects_negative_frequency():
    with pytest.raises(ValueError):
        duality_closure_check(0, -1)
