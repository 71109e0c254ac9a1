"""Small exact matrices over the Gaussian rationals.

Matrices are tuples of tuples of GaussRat, so == compares them entry by
entry.  Only what the word oracle of `operators` requires: products,
scaling and the spin-1/2 generators.  `hkit report` reaches them through
`operators.word_matrix`.
"""

from __future__ import annotations

from .exact import GR_I, GR_ONE, GR_ZERO, GaussRat

Mat = tuple[tuple[GaussRat, ...], ...]


def mat(rows) -> Mat:
    return tuple(tuple(GaussRat.coerce(v) for v in row) for row in rows)


def mmul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(
            sum((a[i][t] * b[t][j] for t in range(k)), GR_ZERO)
            for j in range(m)
        )
        for i in range(n)
    )


def mscale(c, a: Mat) -> Mat:
    c = GaussRat.coerce(c) if not isinstance(c, GaussRat) else c
    return tuple(tuple(c * x for x in row) for row in a)


def meye(n: int) -> Mat:
    return tuple(
        tuple(GR_ONE if i == j else GR_ZERO for j in range(n))
        for i in range(n)
    )


PAULI: dict[int, Mat] = {
    1: mat([[0, 1], [1, 0]]),
    2: ((GR_ZERO, -GR_I), (GR_I, GR_ZERO)),
    3: mat([[1, 0], [0, -1]]),
}

# Spin-1/2 generators T_a = sigma_a / 2, the faithful rep used as an
# independent oracle for the abstract generator algebra.
SPIN: dict[int, Mat] = {a: mscale(GaussRat(1, 0, 2), PAULI[a]) for a in (1, 2, 3)}
