"""Hidden symmetry algebra of the charge-monopole Hamiltonian on R^5.

Operators are exact: covariant momenta, angular momenta with the field
correction, the Hamiltonian, and the rescaled conserved vector

    Mt_k = 2 sqrt(mu0) M_k = sum_i (pi_i L_ik + L_ik pi_i) + (2 mu0 e2 / hbar) x_k / r.

The rescaling clears every square root from the algebra: all ten bracket
relations and the cleared Casimir identities below have Gaussian-rational
coefficients, so each check is an exact is-zero test in the operator ring.
Relations whose natural statement divides by the Hamiltonian are checked
in cleared form, multiplied through by powers of (-2 H); that is
legitimate because [H, L] = [H, Mt] = 0 are themselves verified exactly
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np

from .exact import CHART_A, GaussRat, Point5, ScalarExpr, X, run_starts
from .gauge import field_tensor, vector_potential
from .jets import PointJet, _JetSpace, shift_table
from .operators import OperatorExpr, perm_sign as _perm_sign, word_matrix
from .params import UnitParams

_ZD = (0, 0, 0, 0, 0)
_I = GaussRat(0, 1)


@dataclass(frozen=True)
class RelationResult:
    name: str
    passed: bool
    checked: int
    detail: str


def _iso_word(a: int):
    w = [0, 0, 0]
    w[a - 1] = 1
    return tuple(w)


def _deriv_tuple(i: int):
    d = [0] * 5
    d[i] = 1
    return tuple(d)


class SymmetryOperators:
    """The exact operator family for one parameter set and patch."""

    def __init__(self, params: UnitParams | None = None, chart: int = CHART_A):
        self.params = params or UnitParams()
        self.chart = chart
        hb, mu0, e2 = self.params.hbar, self.params.mu0, self.params.e2

        combine, combine_many = OperatorExpr.combine, OperatorExpr.combine_many
        self._x = [OperatorExpr.from_scalar(X[k]) for k in range(5)]
        self.T = {a: OperatorExpr.iso(a) for a in (1, 2, 3)}
        self.T2 = combine([(1, t, t) for t in self.T.values()])

        A = {a: vector_potential(a, chart) for a in (1, 2, 3)}
        F = {a: field_tensor(a, chart) for a in (1, 2, 3)}

        # pi_i = -i hbar d_i - hbar A^a_i T_a
        self.pi = []
        for i in range(5):
            terms = {((0, 0, 0), _deriv_tuple(i)):
                     ScalarExpr.const(_I * (-hb))}
            for a in (1, 2, 3):
                if not A[a][i].is_structural_zero():
                    terms[(_iso_word(a), _ZD)] = A[a][i] * (-hb)
            self.pi.append(OperatorExpr(terms))

        # L_ij = (x_i pi_j - x_j pi_i) / hbar - r^2 F^a_ij T_a, and
        # L_ji = -L_ij
        pairs = list(combinations(range(5), 2))
        ls = combine_many([
            [(1 / hb, self.x_op(i), self.pi[j]),
             (-1 / hb, self.x_op(j), self.pi[i]),
             (-1, OperatorExpr({(_iso_word(a), _ZD):
                                F[a][i][j] * ScalarExpr.rpow(2)
                                for a in (1, 2, 3)}), None)]
            for i, j in pairs])
        self._L = dict(zip(pairs, ls))
        self._L.update(zip(((j, i) for i, j in pairs),
                           combine_many([[(-1, op, None)] for op in ls])))

        # H = pi.pi / (2 mu0) + (hbar^2 / (2 mu0 r^2)) T^2 - e2 / r
        half = Fraction(1, 2) / mu0
        self.H = combine(
            [(half, p, p) for p in self.pi]
            + [(hb * hb * half, self.T2,
                OperatorExpr.from_scalar(ScalarExpr.rpow(-2))),
               (-e2, OperatorExpr.from_scalar(ScalarExpr.rpow(-1)), None)])
        self.minus_2H = self.H * Fraction(-2)

        # Mt_k = sum_i (pi_i L_ik + L_ik pi_i) + (2 mu0 e2 / hbar) x_k / r
        self.M = combine_many(
            [part for i in range(5) if i != k
             for part in ((1, self.pi[i], self.L(i, k)),
                          (1, self.L(i, k), self.pi[i]))]
            + [(2 * mu0 * e2 / hb, OperatorExpr.from_scalar(
                ScalarExpr.term(1, tuple(int(i == k) for i in range(5)),
                                rp=-1)), None)]
            for k in range(5))

        self._mm_residuals: dict[tuple[int, int], bool] | None = None

    def L(self, i: int, j: int) -> OperatorExpr:
        if i == j:
            return OperatorExpr.zero()
        return self._L[(i, j)]

    def x_op(self, k: int) -> OperatorExpr:
        return self._x[k]

    def mm_bracket_clean(self) -> dict[tuple[int, int], bool]:
        """[Mt_i, Mt_j] + 8 i mu0 H L_ij = 0 for i < j, computed once.

        Each residual is one fused sum of products, all ten decided by one
        `OperatorExpr.combines_are_zero`; no pair Mt_i Mt_j is composed or
        cached on the way.
        """
        if self._mm_residuals is None:
            M, coef = self.M, _I * (8 * self.params.mu0)
            self._mm_residuals = _residuals_zero({
                (i, j): [(1, M[i], M[j]), (-1, M[j], M[i]),
                         (coef, self.H, self.L(i, j))]
                for i, j in combinations(range(5), 2)})
        return self._mm_residuals


def build_operators(params: UnitParams | None = None,
                    chart: int = CHART_A) -> SymmetryOperators:
    return SymmetryOperators(params, chart)


# ----- the ten bracket relations ------------------------------------------------
#
# Each check returns the names of its indices and {index tuple: whether
# the bracket there holds}.  A bracket [a, b] = sum of coef * op is one
# fused residual [(1, a, b), (-1, b, a), (-coef, op, None), ...], and all
# of a check's residuals are decided by one `OperatorExpr.combines_are_zero`.

def _bracket(a: OperatorExpr, b: OperatorExpr, *want) -> list:
    """The parts of the residual [a, b] - sum of coef * op over want."""
    return [(1, a, b), (-1, b, a)] + [(-coef, op, None) for coef, op in want]


def _residuals_zero(residuals: dict) -> dict:
    """{index: whether the combine of its parts is zero}, all at once."""
    return dict(zip(residuals,
                    OperatorExpr.combines_are_zero(residuals.values())))


def _check_pi_x(ops: SymmetryOperators):
    unit = (-_I * ops.params.hbar, OperatorExpr.identity())
    return ("i", "j"), _residuals_zero({
        (i, j): _bracket(ops.pi[i], ops.x_op(j), *([unit] if i == j else []))
        for i in range(5) for j in range(5)})


def _check_pi_pi(ops: SymmetryOperators):
    hb = ops.params.hbar
    F = {a: field_tensor(a, ops.chart) for a in (1, 2, 3)}
    return ("i", "j"), _residuals_zero({
        (i, j): _bracket(ops.pi[i], ops.pi[j], (_I * hb * hb, OperatorExpr(
            {(_iso_word(a), _ZD): F[a][i][j] for a in (1, 2, 3)})))
        for i in range(5) for j in range(5)})


def _check_L_x(ops: SymmetryOperators):
    return ("i", "j", "k"), _residuals_zero({
        (i, j, k): _bracket(ops.L(i, j), ops.x_op(k),
                            *([(_I, ops.x_op(j))] if i == k else []),
                            *([(-_I, ops.x_op(i))] if j == k else []))
        for i, j in combinations(range(5), 2) for k in range(5)})


def _check_L_pi(ops: SymmetryOperators):
    return ("i", "j", "k"), _residuals_zero({
        (i, j, k): _bracket(ops.L(i, j), ops.pi[k],
                            *([(_I, ops.pi[j])] if i == k else []),
                            *([(-_I, ops.pi[i])] if j == k else []))
        for i, j in combinations(range(5), 2) for k in range(5)})


def _check_L_L(ops: SymmetryOperators):
    return ("i", "j", "m", "n"), _residuals_zero({
        (i, j, m, n): _bracket(ops.L(i, j), ops.L(m, n), *(
            (s * _I, ops.L(p, q)) for s, hit, p, q in (
                (1, i == m, j, n), (-1, j == m, i, n),
                (-1, i == n, j, m), (1, j == n, i, m)) if hit))
        for i, j in combinations(range(5), 2)
        for m, n in combinations(range(5), 2)})


def _check_H_L(ops: SymmetryOperators):
    return ("i", "j"), _residuals_zero({
        (i, j): _bracket(ops.H, ops.L(i, j))
        for i, j in combinations(range(5), 2)})


def _check_H_M(ops: SymmetryOperators):
    return ("k",), _residuals_zero({
        (k,): _bracket(ops.H, ops.M[k]) for k in range(5)})


def _check_L_M(ops: SymmetryOperators):
    return ("i", "j", "k"), _residuals_zero({
        (i, j, k): _bracket(ops.L(i, j), ops.M[k],
                            *([(_I, ops.M[j])] if i == k else []),
                            *([(-_I, ops.M[i])] if j == k else []))
        for i, j in combinations(range(5), 2) for k in range(5)})


def _check_M_M(ops: SymmetryOperators):
    return ("i", "j"), ops.mm_bracket_clean()


_CHECKS = {
    "pi-x": _check_pi_x,
    "pi-pi": _check_pi_pi,
    "L-x": _check_L_x,
    "L-pi": _check_L_pi,
    "L-L": _check_L_L,
    "H-L": _check_H_L,
    "H-M": _check_H_M,
    "L-M": _check_L_M,
    "M-M": _check_M_M,
    "SO51-cleared": _check_M_M,
}
RELATION_NAMES = tuple(_CHECKS)


def verify_relation(ops: SymmetryOperators, name: str) -> RelationResult:
    """Every bracket of one relation, decided exactly; a failed row names
    the first bracket that does not hold."""
    if name not in _CHECKS:
        raise KeyError(f"unknown relation {name!r}")
    names, res = _CHECKS[name](ops)
    bad = next((idx for idx, ok in res.items() if not ok), None)
    detail = "exact residual zero" if bad is None else (
        f"nonzero exact residual at ({', '.join(names)}) = "
        f"({', '.join(map(str, bad))})")
    return RelationResult(name=name, passed=bad is None, checked=len(res),
                          detail=detail)


# ----- cleared Casimir identities ------------------------------------------------

def _cleared_c2(ops: SymmetryOperators) -> OperatorExpr:
    """K = mu0 e2^2 / hbar^2 + (2 T^2 - 4)(-2H), the cleared C2 value."""
    p = ops.params
    return OperatorExpr.combine(
        [(p.mu0 * p.e2 * p.e2 / (p.hbar * p.hbar), OperatorExpr.identity(),
          None),
         (2, ops.T2, ops.minus_2H), (-4, ops.minus_2H, None)])


def casimir_c2_residual(ops: SymmetryOperators) -> OperatorExpr:
    """C2-cleared: sum L^2 (-2H) + sum Mt^2 / (4 mu0) - K."""
    l2 = OperatorExpr.combine([(1, ops.L(i, j), ops.L(i, j))
                               for i, j in combinations(range(5), 2)])
    q = Fraction(1, 4) / ops.params.mu0
    return OperatorExpr.combine(
        [(1, l2, ops.minus_2H)] + [(q, m, m) for m in ops.M]
        + [(-1, _cleared_c2(ops), None)])


def _so51_generator(ops: SymmetryOperators, m: int, n: int):
    """D~_mn with the rescaled vector in the fifth-row slots.

    The sign split D_k5 = +Mt_k, D_5k = -Mt_k is fixed so that the odd
    contraction below lands on +96 rather than -96; every even product
    of fifth-row generators is independent of this choice.
    """
    if m == n:
        return None
    if n == 5:
        return ops.M[m]
    if m == 5:
        return ops.M[n] * Fraction(-1)
    return ops.L(m, n)


def _c3_pairing_parts(ops: SymmetryOperators, mu: int, nu: int) -> list:
    """The parts of the sum of eps(mu nu a b c d) D~_ab D~_cd over the six
    ways to split the four indices other than mu, nu into two sorted pairs
    a < b and c < d."""
    rest = [k for k in range(6) if k not in (mu, nu)]
    parts = []
    for a, b in combinations(rest, 2):
        c, d = (k for k in rest if k not in (a, b))
        parts.append((_perm_sign((mu, nu, a, b, c, d)),
                      _so51_generator(ops, a, b), _so51_generator(ops, c, d)))
    return parts


def _c3_pairings(ops: SymmetryOperators, mu: int, nu: int) -> OperatorExpr:
    """The sum `_c3_pairing_parts` stands for, composed."""
    return OperatorExpr.combine(_c3_pairing_parts(ops, mu, nu))


def casimir_c3_residual(ops: SymmetryOperators) -> OperatorExpr:
    """C3-cleared: eps contraction of three D~ against 96 (mu0 e2/hbar) T^2.

    Each epsilon term touches index 5 exactly once, so the contraction is
    linear in Mt and needs no Hamiltonian clearing at all.

    The contraction is sum over mu < nu of 2 D~_mn G_mn, with G_mn the sum
    over the 24 orderings (rho, sg, ta, la) of the other four indices of
    eps(mu nu rho sg ta la) D~_rho,sg D~_ta,la.  D~ is antisymmetric by
    construction: L(i, j) = -L(j, i), and D~_k5 = +Mt_k, D~_5k = -Mt_k.
    Swapping rho with sg, or ta with la, flips both the epsilon sign and
    one factor, so the four orderings of each split into two pairs give the
    same term.  G_mn is therefore 4 times the sum over the six splits into
    sorted pairs, and the whole contraction carries 8 = 2 x 4.  That
    composes 90 distinct pair products instead of 360.
    """
    p = ops.params
    pairs = list(combinations(range(6), 2))
    g = OperatorExpr.combine_many(_c3_pairing_parts(ops, mu, nu)
                                  for mu, nu in pairs)
    return OperatorExpr.combine(
        [(8, _so51_generator(ops, mu, nu), gmn)
         for (mu, nu), gmn in zip(pairs, g)]
        + [(-96 * p.mu0 * p.e2 / p.hbar, ops.T2, None)])


# -- C4: composing the cleared quartic residual as an operator would take
# roughly 10^9 monomial operations, and even its 25 block products
# Mt_m Mt_r reach thousands of monomials each.  Both sides are instead
# written as one signed list of jet chains, each a short sequence of
# operators applied one after another, and the list is summed at seeded
# points on a seeded jet of f of full order 8, the order of the left side,
# so no derivative of f that the residual operator could act on is left
# out.  Every Mt stays a factor of its own; only the cheap sums E0,
# EL5/E5L, K and T^2 are composed.

def _c4_e0_parts(ops: SymmetryOperators, m: int, r: int) -> list:
    """The parts of E0_mr = sum over nu other than m, r of L_m,nu L_nu,r."""
    return [(1, ops.L(m, nu), ops.L(nu, r))
            for nu in range(5) if nu not in (m, r)]


def _c4_e0(ops: SymmetryOperators, m: int, r: int) -> OperatorExpr:
    """E0_mr, composed."""
    return OperatorExpr.combine(_c4_e0_parts(ops, m, r))


def _c4_el5_e5l_parts(ops: SymmetryOperators, m: int) -> tuple[list, list]:
    """The parts of EL5_m = sum_nu L_m,nu Mt_nu and E5L_m = sum_nu Mt_nu
    L_nu,m."""
    nus = [nu for nu in range(5) if nu != m]
    return ([(1, ops.L(m, nu), ops.M[nu]) for nu in nus],
            [(1, ops.M[nu], ops.L(nu, m)) for nu in nus])


def _c4_chains(ops: SymmetryOperators) -> list[tuple]:
    """The cleared C4 residual as chains (coef, (op_1, ..., op_n), k), each
    one standing for coef op_1(...op_n((-2H)^k f)), outermost first.

    With G1_mr = E0_mr (-2H) - Mt_m Mt_r / (4 mu0) the left side is

        (1/2) sum_mr G1_mr G1_rm
        - (1/(8 mu0)) sum_m (EL5_m E5L_m + E5L_m EL5_m)(-2H)
        + (1/(32 mu0^2)) S S,        S = sum_i Mt_i Mt_i,

    and since (-2H) commutes exactly with every L and Mt (verified first)
    the G1 products expand into four patterns with (-2H) pushed onto f:
    (E0_mr, E0_rm), (E0_mr, Mt_r, Mt_m), (Mt_m, Mt_r, E0_rm) and
    (Mt_m, Mt_r, Mt_r, Mt_m).  S S is the 25 chains (Mt_i, Mt_i, Mt_j,
    Mt_j).  The right side, with K the cleared C2 value,

        K K + 6 K (-2H) - 4 K T^2 (-2H) - 12 T^2 (-2H)^2 + 6 T^4 (-2H)^2,

    enters negated.  Each Mt factor is the one object ops.M[i], so chains
    that end in the same factors share their images in `_c4_values`.
    """
    p = ops.params
    q = Fraction(1, 4) / p.mu0
    M = ops.M
    mr = [(m, r) for m in range(5) for r in range(5)]
    E0 = dict(zip(mr, OperatorExpr.combine_many(
        _c4_e0_parts(ops, m, r) for m, r in mr)))
    chains = []
    for m in range(5):
        for r in range(5):
            chains += [(Fraction(1, 2), (E0[m, r], E0[r, m]), 2),
                       (-q / 2, (E0[m, r], M[r], M[m]), 1),
                       (-q / 2, (M[m], M[r], E0[r, m]), 1),
                       (q * q / 2, (M[m], M[r], M[r], M[m]), 0)]
    c1 = -Fraction(1, 8) / p.mu0
    e5 = OperatorExpr.combine_many(
        parts for m in range(5) for parts in _c4_el5_e5l_parts(ops, m))
    for el5, e5l in zip(e5[::2], e5[1::2]):
        chains += [(c1, (el5, e5l), 1), (c1, (e5l, el5), 1)]
    c2 = Fraction(1, 32) / (p.mu0 * p.mu0)
    chains += [(c2, (M[i], M[i], M[j], M[j]), 0)
               for i in range(5) for j in range(5)]
    K, T2 = _cleared_c2(ops), ops.T2
    chains += [(-1, (K, K), 0), (-6, (K,), 1), (4, (K, T2), 1),
               (12, (T2,), 2), (-6, (T2, T2), 2)]
    return [(float(c), factors, k) for c, factors, k in chains]


@dataclass(frozen=True)
class _RowSums:
    """A complex matrix as its entries, sorted by (row, col) with
    duplicates summed, applied to a stack of rows x as M @ x by one
    ``np.add.reduceat`` over the segments of the rows that hold entries.

    ``rows`` lists those rows and ``starts`` where each one's segment
    begins in ``cols`` and ``vals``.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_entries(cls, rows, cols, vals, shape: tuple[int, int]) -> "_RowSums":
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=complex)
        if not rows.size:  # run_starts finds one run even in no entries
            return cls(shape, rows, rows, cols, vals)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = run_starts(rows * shape[1] + cols)
        rows, cols, vals = rows[first], cols[first], np.add.reduceat(vals, first)
        starts = run_starts(rows)
        return cls(shape, rows[starts], starts, cols, vals)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[0], x.shape[1]), dtype=complex)
        if self.rows.size:  # no reduceat on an empty index array
            out[self.rows] = np.add.reduceat(self.vals[:, None] * x[self.cols],
                                             self.starts)
        return out


@dataclass(frozen=True)
class _ChainPlan:
    """One operator laid out for jet chains.

    ``derivs`` lists its distinct derivatives, nd = len(derivs).  ``coef``
    is a (2 * 2 nd x term) `_RowSums` matrix over the term columns of the
    `_ChainPlans` that built it: row s * 2 nd + b * nd + i sums, over the
    keys with derivative derivs[i], entry (s, b) of the key's word matrix
    times the key's coefficient.  Applied to the term jets it gives one
    coefficient jet per output component s, input component b and
    derivative.
    """

    order: int
    coef: _RowSums
    derivs: tuple
    _gathers: dict = field(default_factory=dict, compare=False, repr=False)

    def gather(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """The shift tables of every derivative, stacked (nd x dim): row i
        takes the jet of d^derivs[i] f at order from f's jet at order plus
        the plan's.  Cached per order, as long as the plan lives."""
        got = self._gathers.get(order)
        if got is None:
            lo = _JetSpace.get(order)
            hi = _JetSpace.get(order + self.order)
            src, scale = zip(*(shift_table(hi, lo, d) for d in self.derivs))
            got = self._gathers[order] = (
                np.array(src, dtype=int).reshape(-1, lo.dim),
                np.array(scale).reshape(-1, lo.dim))
        return got


class _ChainPlans:
    """Chain plans of the operators of one check, shared by its points.

    Every distinct coefficient term x^m r^k (r + s x0)^a of a planned
    operator owns one column, so one stack of term jets per point serves
    all plans.  Plans are keyed by operator identity and keep the operator
    alive, so an id cannot be reused while its plan is cached.
    """

    def __init__(self):
        self.terms: list[tuple] = []
        self._column: dict[tuple, int] = {}
        self._plans: dict[int, tuple[OperatorExpr, _ChainPlan]] = {}

    def get(self, op: OperatorExpr) -> _ChainPlan:
        got = self._plans.get(id(op))
        if got is None:
            got = (op, self._build(op))
            self._plans[id(op)] = got
        return got[1]

    def applied_orders(self, factors: tuple) -> list[int]:
        """The order each factor of a chain is applied at: the summed
        orders of the factors outside it."""
        return list(accumulate((self.get(op).order for op in factors[:-1]),
                               initial=0))

    def column_orders(self, uses) -> np.ndarray:
        """The highest order any of uses, pairs (op, order) of an operator
        and an order its image is taken at, needs each term column's jet
        at; 0 for a column none of them reads.  Plans the uses need are
        built first."""
        uses = [(self.get(op).coef.cols, order) for op, order in uses]
        out = np.zeros(len(self.terms), dtype=int)
        for cols, order in uses:
            out[cols] = np.maximum(out[cols], order)
        return out

    def _build(self, op: OperatorExpr) -> _ChainPlan:
        column = self._column
        cols, words, dsel, derivs = [], [], [], {}
        keys, charts, start, terms, vals = op.float_terms()
        for k, (w, d) in enumerate(keys):
            words.append(_word_mat_num(w))
            dsel.append(derivs.setdefault(d, len(derivs)))
            for n in range(start[k], start[k + 1]):
                mono, rp, ap = terms[n]
                term = (mono, rp, ap, charts[k] if ap else 0)
                j = column.get(term)
                if j is None:
                    j = column[term] = len(self.terms)
                    self.terms.append(term)
                cols.append(j)
        # one entry per term and nonzero entry (s, b) of its key's word
        key = np.repeat(np.arange(len(keys)), np.diff(start))
        w = np.array(words, dtype=complex).reshape(-1, 2, 2)[key]
        s, b, n = np.nonzero(w.transpose(1, 2, 0))
        nd = len(derivs)
        coef = _RowSums.from_entries(
            s * 2 * nd + b * nd + np.array(dsel, dtype=np.intp)[key[n]],
            np.array(cols, dtype=np.intp)[n],
            w[n, s, b] * np.array(vals, dtype=complex)[n],
            (4 * nd, len(self.terms)))
        order = max((sum(d) for d in derivs), default=0)
        return _ChainPlan(order, coef, tuple(derivs))


class _JetApplier:
    """Applies planned operators to jets of f at one point, in batched jet
    arithmetic.

    With lo the order asked for and hi = lo + the order of op, the jet of
    op(f) is a few array operations on op's plan:

    - op's coefficient row sums, applied to the stacked jets of the plans'
      terms at this point, give one coefficient jet a[s, b, d] at order lo
      per output component s, input component b and derivative d of op;
    - the jets of d^d f_b at order lo, for every derivative d of op, are
      gathered from f's jet at order hi by the plan's stacked shift tables;
    - output component s of the image jet is the sum over (b, d) of the
      truncated products of a[s, b, d] and d^d f_b: one matmul per degree
      block of a (`_JetSpace.stack_mul`), binned on ic.

    A chain op_1(...op_n(f)) is evaluated from the inside out: the image
    under op_n at the summed order of op_1 .. op_(n-1), the image of that
    under op_(n-1) at the order of the factors still outside it, and so
    on, down to order 0, the value at the point.  Each image is memoized
    by the input jet, the suffix of factors applied to it and its order,
    so chains that end in the same factors compute them once.  Nothing is
    composed or applied symbolically.  The plans and their shift stacks
    live as long as the `_ChainPlans` passed in, one check in
    `_c4_values`; the term jets and images live as long as the applier,
    one point.  Jet spaces and shift tables are cached per order for the
    process.

    ``orders`` gives the order of each term column's jet, one int for all
    of them or one per column of the plans (`_ChainPlans.column_orders`);
    the jets of every column the plans hold when the applier is made are
    computed there, each at its own order.  An image of op at an order
    above one of op's columns raises instead of reading a jet that is too
    short, and no plan that adds a term column afterwards can be applied.
    """

    def __init__(self, p: Point5, plans: _ChainPlans, orders):
        self.plans = plans
        n = len(plans.terms)
        self.orders = np.broadcast_to(np.asarray(orders, dtype=int), (n,))
        self.order = int(self.orders.max(initial=0))
        self._tjets = np.zeros((n, _JetSpace.get(self.order).dim),
                               dtype=complex)
        for order in np.unique(self.orders).tolist():
            cols = np.flatnonzero(self.orders == order)
            pj = PointJet(p, order)
            self._tjets[cols, :pj.space.dim] = pj.terms(
                [plans.terms[j] for j in cols.tolist()])
        self._images: dict[tuple, np.ndarray] = {}
        self._inputs: dict[int, np.ndarray] = {}

    def term_jets(self, op: OperatorExpr, order: int) -> np.ndarray:
        """Jets at order of every term column, one row per column: prefixes
        of the stored rows, because jets are sorted by degree.  Rows of
        columns op does not use may be shorter; op's own must not be."""
        reach = self.orders[self.plans.get(op).coef.cols].min(
            initial=self.order)
        if order > reach:
            raise ValueError(f"term jets were computed at order {reach}, "
                             f"not {order}")
        return self._tjets[:, :_JetSpace.get(order).dim]

    def image(self, op: OperatorExpr, fjet: np.ndarray,
              order: int) -> np.ndarray:
        """Jet of op(f) at order, shape (2, dim), from the jet fjet of f.

        fjet has shape (2, dim) at order plus the order of op, or higher.
        """
        pl = self.plans.get(op)
        lo = _JetSpace.get(order)
        a = (pl.coef @ self.term_jets(op, order)).reshape(2, -1, lo.dim)
        src, scale = pl.gather(order)
        shifted = (np.take(fjet, src, axis=1) * scale).reshape(-1, lo.dim)
        return lo.stack_mul(a.transpose(0, 2, 1), shifted)

    def chain(self, factors: tuple, fjet: np.ndarray) -> np.ndarray:
        """Both components of factors[0](...factors[-1](f)) at the point.

        The applier holds fjet, so its id keys the memo for as long as the
        memoized images do; fjet must not be changed in place afterwards.
        """
        self._inputs[id(fjet)] = fjet
        orders = self.plans.applied_orders(factors)
        jet, suffix = fjet, ()
        for i in reversed(range(len(factors))):
            suffix = (id(factors[i]),) + suffix
            key = (id(fjet), suffix, orders[i])
            got = self._images.get(key)
            if got is None:
                got = self._images[key] = self.image(factors[i], jet,
                                                     orders[i])
            jet = got
        return jet[:, 0]


def _c4_plans(ops: SymmetryOperators,
              chains: list[tuple]) -> tuple[_ChainPlans, np.ndarray]:
    """The plans of (-2H) and of every chain factor, and the order each
    term column's jet is needed at.

    (-2H) is applied at orders 6 and 4, for f1 = (-2H) f and f2 = (-2H) f1;
    a chain factor at the summed order of the factors outside it.  Each
    column is needed at the highest order any operator that reads it is
    applied at: 6 for the columns of (-2H) and of an Mt under three outer
    factors, 3 or 4 for most others.
    """
    plans = _ChainPlans()
    uses = [(ops.minus_2H, 6), (ops.minus_2H, 4)]
    for _, factors, _ in chains:
        uses += zip(factors, plans.applied_orders(factors))
    return plans, plans.column_orders(uses)


def _c4_values(ops: SymmetryOperators, chains: list[tuple],
               points: list[Point5], jets: list[np.ndarray]) -> np.ndarray:
    """The sum of the chains at each point, one row of both components per
    point, for the jet of f there (order 8 or higher).

    f1 = (-2H) f at order 6 and f2 = (-2H) f1 at order 4 come from the same
    plan set as the chains.  All plans are built before the first applier
    (`_c4_plans`), so each point's applier computes every term column's jet
    once, at the order the column is needed at, not all of them at order 6.
    The plans and their shift stacks are dropped when this returns; each
    point gets its own applier, so its term jets and memoized images are
    freed before the next point's are made.
    """
    plans, orders = _c4_plans(ops, chains)
    vals = np.zeros((len(points), 2), dtype=complex)
    for n, (pt, f) in enumerate(zip(points, jets)):
        ja = _JetApplier(pt, plans, orders)
        f1 = ja.image(ops.minus_2H, f, 6)
        fk = (f, f1, ja.image(ops.minus_2H, f1, 4))
        for coef, factors, k in chains:
            vals[n] += coef * ja.chain(factors, fk[k])
    return vals


_WORD_MAT_NUM: dict = {}


def _word_mat_num(w):
    m = _WORD_MAT_NUM.get(w)
    if m is None:
        g = word_matrix(w)
        m = tuple(tuple(v.to_complex() for v in row) for row in g)
        _WORD_MAT_NUM[w] = m
    return m


@dataclass(frozen=True)
class CasimirResult:
    name: str
    mode: str
    passed: bool
    residual: float | None
    detail: str


def casimir_check(ops: SymmetryOperators, which: str,
                  tol: float = 1e-8) -> CasimirResult:
    """Cleared Casimir identities: C2 and C3 exactly, C4 numerically.

    C2 and C3 are exact is-zero tests in the operator ring; a failed one
    has no size to report, so its residual is None.  C4 passes when the
    worst deviation `c4_applied_residual` finds is below tol; the C4
    section above says why it is applied rather than exact.
    """
    if which == "C2":
        ok = casimir_c2_residual(ops).is_zero()
        return CasimirResult("C2", "exact", ok, 0.0 if ok else None,
                             "cleared quadratic invariant")
    if which == "C3":
        ok = casimir_c3_residual(ops).is_zero()
        return CasimirResult("C3", "exact", ok, 0.0 if ok else None,
                             "epsilon contraction, linear in Mt")
    if which == "C4":
        worst = float(c4_applied_residual(ops))
        return CasimirResult("C4", "numeric", worst < tol, worst,
                             "quartic contraction on seeded functions "
                             "(applied)")
    raise KeyError(f"unknown casimir {which!r}")


def c4_test_points() -> list[Point5]:
    """Two fixed points with rational coordinates, as floats for speed.
    Neither radius is rational: r^2 = 41/16 and 18/5."""
    return [
        Point5([0.25, 0.5, -1.0, 0.5, 1.0]),   # r^2 = 41/16
        Point5([-0.6, 1.2, 0.4, -0.8, 1.0]),
    ]


def c4_test_jets(n: int) -> list[np.ndarray]:
    """n seeded jets of f of order 8, each of shape (2, dim).

    Every derivative of order <= 8 of both components is uniform in the
    unit square [0, 1) + i [0, 1), so each Taylor coefficient is that
    value over gamma!.  The seed is fixed: the row does not depend on
    the run's seed.
    """
    sp = _JetSpace.get(8)
    z = np.random.default_rng(8).random((n, 2, 2, sp.dim))
    return list((z[:, 0] + 1j * z[:, 1]) / sp.fact)


def c4_applied_residual(ops: SymmetryOperators) -> float:
    """Worst |LHS f - RHS f| at the seeded points for the seeded jets."""
    points = c4_test_points()
    vals = _c4_values(ops, _c4_chains(ops), points,
                      c4_test_jets(len(points)))
    return float(np.abs(vals).max())
