"""Differential operators with su(2) generator words in normal order.

An operator is a finite sum of terms

    c(x) * T1^a T2^b T3^c * d^alpha

with c a ScalarExpr, (a, b, c) a normally ordered generator word and
alpha a 5-tuple of derivative orders.  Generators commute with positions
and derivatives; products of words are rewritten to normal order through
[T_a, T_b] = i eps_abc T_c with memoized rewriting, and composition of
differential parts uses the generalized Leibniz rule.

Composition runs on term tables (``_Table``): all of an operator's
coefficient terms as flat numpy arrays, each term key (m0..m4, rp, ap)
packed into one int64 by ``exact.pack_key`` and each coefficient a
Gaussian-integer numerator (re, im) over one denominator for the whole
operator.  Multiplying two terms is one addition of keys and one
Gaussian-integer product, and no relation is applied: r^2 stays r^2 until
a zero test.  Exponents outside [-EXP_LIMIT, EXP_LIMIT] raise
ExponentRange.

Sums of products are fused: ``OperatorExpr.combine`` takes parts
coef * (A @ B) and coef * A, and ``_accumulate`` works all parts at once.
It lays out the blocks (part, A key, B key, Leibniz row, word entry) by
numpy index arithmetic over tables each operator keeps: its Leibniz rows as
a left factor, its derivative stack (every d^gamma of every coefficient,
from ``exact.diff_terms``) as a right factor, and ``word_mul`` of its words
as arrays.  The term products of all blocks are then merged by (output
key, term key) with stable first-occurrence order, so keys and terms come
out as a term-by-term accumulation would give them.  Python loops over
parts and operators, never over blocks or terms.  ``A @ B`` is the
one-part combine, and ``combine_many`` and ``combines_are_zero`` run many
sums in one pass; a sum that is only zero-tested builds no GaussRat and no
ScalarExpr.

Exactness needs no switch: the numerators are int64 only where an l1
bound proves that every product, factor and partial sum stays below 2^62
(see ``_accumulate`` and ``exact.widen``), and Python ints, through the
same numpy calls, where it does not.  Any positive rational units are
exact; at the benchmark's units everything runs in int64.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iterproduct
from math import comb, gcd, lcm

import numpy as np

from .errors import ChartMismatch, ExponentRange
from .exact import (
    _BIAS,
    CHART_A,
    CHART_B,
    CHART_NONE,
    EXP_LIMIT,
    GR_ONE,
    GaussRat,
    Point5,
    ScalarExpr,
    _join_chart,
    check_exponents,
    checked_fields,
    diff_terms,
    int_array,
    l1_norms,
    merge_terms,
    nonzero_segments,
    pack_key,
    pair_key,
    ragged,
    run_starts,
    unpack_key,
    widen,
)
from .gmat import SPIN, Mat, meye, mmul

Word = tuple[int, int, int]
Deriv = tuple[int, int, int, int, int]

_W1: Word = (1, 0, 0)
_ZERO_DERIV: Deriv = (0, 0, 0, 0, 0)

EPS3 = {}
for _i, _j, _k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    EPS3[(_i, _j, _k)] = 1
    EPS3[(_i, _k, _j)] = -1


def eps3(a: int, b: int, c: int) -> int:
    return EPS3.get((a, b, c), 0)


def perm_sign(seq) -> int:
    """(-1) to the number of inversions of a sequence of distinct numbers."""
    s = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                s = -s
    return s


# ----- Leibniz rule ----------------------------------------------------------

_LEIBNIZ: dict[Deriv, list[tuple[Deriv, int, Deriv]]] = {}


def _leibniz(d: Deriv) -> list[tuple[Deriv, int, Deriv]]:
    """The Leibniz rule d^d (c g) = sum over gamma <= d of
    mult * (d^gamma c) * d^(d - gamma) g, as (gamma, mult, d - gamma) with
    mult = prod_i binom(d_i, gamma_i), in itertools.product order."""
    out = _LEIBNIZ.get(d)
    if out is None:
        out = []
        for gamma in iterproduct(*(range(n + 1) for n in d)):
            mult = 1
            for n, g in zip(d, gamma):
                mult *= comb(n, g)
            out.append((gamma, mult,
                        tuple(n - g for n, g in zip(d, gamma))))
        _LEIBNIZ[d] = out
    return out


# ----- normal ordering of generator words ----------------------------------

_GEN_MEMO: dict[tuple[Word, int], dict[Word, GaussRat]] = {}
_WORD_MEMO: dict[tuple[Word, Word], dict[Word, GaussRat]] = {}

_I = GaussRat(0, 1)
_NEG_I = GaussRat(0, -1)


def _gen_right(w: Word, g: int) -> dict[Word, GaussRat]:
    """Normal ordering of (word * T_g)."""
    a, b, c = w
    if g == 3:
        return {(a, b, c + 1): GR_ONE}
    memo = _GEN_MEMO.get((w, g))
    if memo is not None:
        return memo
    out: dict[Word, GaussRat] = {}
    if g == 2:
        if c == 0:
            out[(a, b + 1, 0)] = GR_ONE
        else:
            # T3 T2 = T2 T3 - i T1
            for w2, coef in _gen_right((a, b, c - 1), 2).items():
                _acc_word(out, (w2[0], w2[1], w2[2] + 1), coef)
            for w2, coef in _gen_right((a, b, c - 1), 1).items():
                _acc_word(out, w2, coef * _NEG_I)
    else:  # g == 1
        if b == 0 and c == 0:
            out[(a + 1, 0, 0)] = GR_ONE
        elif c > 0:
            # T3 T1 = T1 T3 + i T2
            for w2, coef in _gen_right((a, b, c - 1), 1).items():
                _acc_word(out, (w2[0], w2[1], w2[2] + 1), coef)
            for w2, coef in _gen_right((a, b, c - 1), 2).items():
                _acc_word(out, w2, coef * _I)
        else:
            # T2 T1 = T1 T2 - i T3
            for w2, coef in _gen_right((a, b - 1, 0), 1).items():
                for w3, coef2 in _gen_right(w2, 2).items():
                    _acc_word(out, w3, coef * coef2)
            for w2, coef in _gen_right((a, b - 1, 0), 3).items():
                _acc_word(out, w2, coef * _NEG_I)
    _GEN_MEMO[(w, g)] = out
    return out


def _acc_word(acc: dict[Word, GaussRat], w: Word, c: GaussRat) -> None:
    prev = acc.get(w)
    nc = c if prev is None else prev + c
    if nc:
        acc[w] = nc
    elif prev is not None:
        del acc[w]


def word_mul(w1: Word, w2: Word) -> dict[Word, GaussRat]:
    """Normal ordering of the concatenation w1 . w2."""
    if w1 == (0, 0, 0):
        return {w2: GR_ONE}
    if w2 == (0, 0, 0):
        return {w1: GR_ONE}
    memo = _WORD_MEMO.get((w1, w2))
    if memo is not None:
        return memo
    acc: dict[Word, GaussRat] = {w1: GR_ONE}
    for g, reps in ((1, w2[0]), (2, w2[1]), (3, w2[2])):
        for _ in range(reps):
            nxt: dict[Word, GaussRat] = {}
            for w, c in acc.items():
                for wn, cn in _gen_right(w, g).items():
                    _acc_word(nxt, wn, c * cn)
            acc = nxt
    _WORD_MEMO[(w1, w2)] = acc
    return acc


def word_matrix(w: Word) -> Mat:
    """Spin-1/2 matrix of a generator word, the independent oracle."""
    m = meye(2)
    for g, reps in ((1, w[0]), (2, w[1]), (3, w[2])):
        for _ in range(reps):
            m = mmul(m, SPIN[g])
    return m


# ----- operators as term tables ----------------------------------------------
#
# An operator key (word, deriv) packs into one int64: the word's powers in
# 7-bit fields above bit 40, and the derivative orders d0..d4 in 8-bit
# fields below it.  An operand's powers and orders lie in [0, EXP_LIMIT],
# so those of a product stay below 2^7, and packed derivatives add like
# exponents.

_CHUNK = 1 << 16  # products made and merged at once, about

_WORD_PAIRS: dict[tuple, tuple] = {}
_DMASK = (1 << 40) - 1


def _pack_word(w: Word) -> int:
    return (w[0] << 14) | (w[1] << 7) | w[2]


def _pack_deriv(d: Deriv) -> int:
    return d[0] + (d[1] << 8) + (d[2] << 16) + (d[3] << 24) + (d[4] << 32)


def _pack_okey(w: Word, d: Deriv) -> int:
    """An operand's key; raises ExponentRange unless every power and order
    lies in [0, EXP_LIMIT]."""
    if max(w) > EXP_LIMIT or max(d) > EXP_LIMIT:
        raise ExponentRange(f"operator key {(w, d)} has a power or order "
                            f"outside [0, {EXP_LIMIT}]")
    return (_pack_word(w) << 40) | _pack_deriv(d)


def _word_of(code: int) -> Word:
    return (code >> 14, (code >> 7) & 127, code & 127)


def _out_key(okey: int) -> tuple[Word, Deriv]:
    d = okey & _DMASK
    return (_word_of(okey >> 40), (d & 255, (d >> 8) & 255, (d >> 16) & 255,
                                   (d >> 24) & 255, d >> 32))


def _word_pairs(wa: tuple, wb: tuple):
    """``word_mul`` of every packed word in wa by every one in wb, as one
    CSR: (start, packed out word, re, im), pair (p, q) at p * len(wb) + q,
    each coefficient re + i im a Gaussian integer."""
    got = _WORD_PAIRS.get((wa, wb))
    if got is None:
        counts, outs, res, ims = [0], [], [], []
        for p in wa:
            for q in wb:
                prod = word_mul(_word_of(p), _word_of(q))
                if any(c.d != 1 for c in prod.values()):
                    raise ArithmeticError(
                        f"word coefficients of {_word_of(p)} {_word_of(q)} "
                        "are not Gaussian integers")
                counts.append(len(prod))
                outs += [_pack_word(w) for w in prod]
                res += [c.a for c in prod.values()]
                ims += [c.b for c in prod.values()]
        got = _WORD_PAIRS[(wa, wb)] = (
            np.cumsum(counts), np.array(outs, dtype=np.int64),
            np.array(res, dtype=np.int64), np.array(ims, dtype=np.int64))
    return got


def _parent(gamma: Deriv) -> tuple[Deriv, int]:
    """(gamma - e_k, k), k the last axis gamma differentiates."""
    k = max(i for i, n in enumerate(gamma) if n)
    return gamma[:k] + (gamma[k] - 1,) + gamma[k + 1:], k


def _chart_bits(chart: np.ndarray) -> np.ndarray:
    """A chart as bits: 1 chart A, 2 chart B, 0 no axis factor."""
    return np.where(chart == CHART_A, 1, np.where(chart == CHART_B, 2, 0))


class _Table:
    """An operator as one term table: key k, packed as okey[k], has the
    coefficient start[k]:start[k + 1] of (tk, re, im), numerators over den,
    terms in order; seg[n] is the key of term n.

    What composition needs of the operator as a left factor (``leibniz``,
    ``words``) and as a right factor (``diff_rows``) is built on first use
    and kept with it, so a table is not safe to compose from two threads at
    once; the suites run in processes.
    """

    __slots__ = ("okey", "chart", "start", "seg", "tk", "re", "im", "den",
                 "_keys", "_checked", "_l1", "_leib", "_words", "_rows",
                 "_stack", "_cat")

    def __init__(self, okey, chart, start, seg, tk, re, im, den: int,
                 keys=None):
        self.okey, self.chart, self.start, self.seg = okey, chart, start, seg
        self.tk, self.re, self.im, self.den = tk, re, im, den
        self._keys = keys
        self._checked = False
        self._l1 = self._leib = self._words = self._cat = None
        self._rows: dict[Deriv, int] = {_ZERO_DERIV: 0}
        self._stack: list[tuple] = [(seg, tk, re, im)]

    @property
    def keys(self) -> list[tuple[Word, Deriv]]:
        if self._keys is None:
            self._keys = [_out_key(k) for k in self.okey.tolist()]
        return self._keys

    def check(self) -> "_Table":
        """Raise ExponentRange unless every exponent lies in
        [-EXP_LIMIT, EXP_LIMIT] and every word power and derivative order
        in [0, EXP_LIMIT]; a product's may reach twice that."""
        if not self._checked:
            checked_fields(self.tk)
            for w, d in set(self.keys):
                _pack_okey(w, d)
            self._checked = True
        return self

    def sign(self) -> np.ndarray:
        """The chart sign s per key, +1 where no axis factor occurs."""
        return np.where(self.chart == CHART_B, -1, 1)

    def l1(self) -> np.ndarray:
        """sum |re| + |im| per key, as float64."""
        if self._l1 is None:
            self._l1 = np.bincount(self.seg, l1_norms(self.re, self.im),
                                   self.okey.size)
        return self._l1

    def words(self) -> tuple[tuple, np.ndarray]:
        """(the distinct packed words, in order; each key's index among
        them)."""
        if self._words is None:
            ids, at = np.unique(self.okey >> 40, return_inverse=True)
            self._words = (tuple(ids.tolist()), at)
        return self._words

    def leibniz(self, lone: bool = False):
        """The Leibniz rows of every key as a left factor, in key order and
        ``_leibniz`` order: (start, count, gamma index, mult, packed rest,
        gammas), key k's rows at start[k]:start[k] + count[k].  With
        ``lone`` the table is a whole part, A @ 1: one row per key, gamma
        0, since every derivative of 1 vanishes."""
        if lone:
            n = self.okey.size
            return (np.arange(n), np.ones(n, dtype=np.int64),
                    np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64),
                    self.okey & _DMASK, (_ZERO_DERIV,))
        if self._leib is None:
            gammas: dict[Deriv, int] = {}
            counts, gidx, mult, rest = [], [], [], []
            for _, d in self.keys:
                rows = _leibniz(d)
                counts.append(len(rows))
                for gamma, m, r in rows:
                    gidx.append(gammas.setdefault(gamma, len(gammas)))
                    mult.append(m)
                    rest.append(_pack_deriv(r))
            counts = np.array(counts, dtype=np.int64)
            self._leib = (np.cumsum(counts) - counts, counts,
                          np.array(gidx, dtype=np.int64),
                          np.array(mult, dtype=np.int64),
                          np.array(rest, dtype=np.int64), tuple(gammas))
        return self._leib

    def diff_rows(self, gammas) -> np.ndarray:
        """The row in the derivative stack of d^gamma of every coefficient,
        for each gamma.  Missing rows are made order by order, each order's
        in one ``diff_terms`` call: the row of gamma from the row of
        gamma - e_k, k the last axis gamma differentiates, the order in
        which ``ScalarExpr.multi_diff`` differentiates."""
        rows, todo = self._rows, set()
        for g in gammas:
            while g not in rows and g not in todo:
                todo.add(g)
                g = _parent(g)[0]
        for order in sorted({sum(g) for g in todo}):
            self._add_rows(sorted(g for g in todo if sum(g) == order))
        return np.array([rows[g] for g in gammas], dtype=np.int64)

    def _add_rows(self, gammas: list) -> None:
        n = self.okey.size
        seg, tk, re, im, axis = [], [], [], [], []
        for b, g in enumerate(gammas):
            prev, k = _parent(g)
            row = self._stack[self._rows[prev]]
            seg.append(row[0] + b * n)
            tk.append(row[1])
            re.append(row[2])
            im.append(row[3])
            axis.append(np.full(row[1].size, k))
        seg = np.concatenate(seg)
        seg, tk, re, im = diff_terms(
            seg, np.concatenate(tk), np.concatenate(re), np.concatenate(im),
            self.sign()[seg % n], np.concatenate(axis))
        checked_fields(tk)
        cut = np.searchsorted(seg, np.arange(len(gammas) + 1) * n)
        for b, g in enumerate(gammas):
            a, z = cut[b], cut[b + 1]
            self._rows[g] = len(self._stack)
            self._stack.append((seg[a:z] - b * n, tk[a:z], re[a:z], im[a:z]))
        self._cat = None

    def stack(self) -> tuple:
        """The derivative stack (start, tk, re, im, l1, bits) of every row
        made so far: key k of row g is the segment start[g, k]:start[g,
        k + 1], l1[g, k] its l1 norm and bits[g, k] its chart as
        ``_chart_bits``, 0 if no term has an axis factor."""
        if self._cat is None:
            n, stack = self.okey.size, self._stack
            sizes = np.array([len(r[1]) for r in stack])
            base = np.cumsum(sizes) - sizes
            at = (np.repeat(np.arange(len(stack)), sizes) * n
                  + np.concatenate([r[0] for r in stack]))
            start = base[:, None] + np.array(
                [np.searchsorted(r[0], np.arange(n + 1)) for r in stack])
            tk = np.concatenate([r[1] for r in stack])
            re = np.concatenate([r[2] for r in stack])
            im = np.concatenate([r[3] for r in stack])
            size = n * len(stack)
            l1 = np.bincount(at, l1_norms(re, im), size)
            has_ap = np.bincount(at, (tk + _BIAS) >> 48 != 128, size) > 0
            bits = np.where(has_ap.reshape(-1, n), _chart_bits(self.chart), 0)
            self._cat = (start.ravel(), tk, re, im, l1, bits.ravel())
        return self._cat


def _table_of_terms(terms: dict) -> _Table:
    """The term table of a dict of coefficients, over the lcm of their
    denominators; raises ExponentRange as ``check_exponents`` does."""
    coefs = list(terms.values())
    keys = [k for c in coefs for k, _ in c.items()]
    vals = [v for c in coefs for _, v in c.items()]
    if keys:
        check_exponents(keys)
    den = lcm(*(v.d for v in vals))
    counts = [len(c) for c in coefs]
    okey = [_pack_okey(w, d) for w, d in terms]
    return _Table(np.array(okey, dtype=np.int64),
                  np.array([c.chart for c in coefs], dtype=np.int64),
                  np.cumsum([0] + counts),
                  np.repeat(np.arange(len(coefs)), counts),
                  np.array([pack_key(k) for k in keys], dtype=np.int64),
                  int_array([v.a * (den // v.d) for v in vals]),
                  int_array([v.b * (den // v.d) for v in vals]), den,
                  list(terms))


class _Joined:
    """The arrays of several tables laid end to end, each table once."""

    def __init__(self):
        self.at: dict = {}
        self.cols: list[list[np.ndarray]] = []
        self.lens: list[list[int]] = []

    def add(self, key, *arrays: np.ndarray) -> int:
        """The index of the table ``key``, adding its arrays if new."""
        k = self.at.get(key)
        if k is None:
            k = self.at[key] = len(self.lens)
            if not self.cols:
                self.cols = [[] for _ in arrays]
            for col, a in zip(self.cols, arrays):
                col.append(a)
            self.lens.append([len(a) for a in arrays])
        return k

    def offsets(self, col: int) -> np.ndarray:
        """Where each table's array ``col`` starts in the joined one."""
        n = np.array([lens[col] for lens in self.lens], dtype=np.int64)
        return np.cumsum(n) - n

    def column(self, col: int, index_into: int | None = None) -> np.ndarray:
        """The joined array ``col``; if it holds positions in array
        ``index_into``, each table's are moved to where that one starts."""
        arrays = self.cols[col]
        if index_into is not None:
            arrays = [a + o for a, o in zip(arrays, self.offsets(index_into))]
        return np.concatenate(arrays)


def _accumulate(parts, order: str | None):
    """The merged term products of tagged parts (tag, c, A, B): the sum,
    for each tag, of c * (A @ B) over its parts, or of c * A where B is
    None; A and B are tables and c is a GaussRat.

    Returns (den, seg_tag, seg_okey, seg_bits, seg, tk, re, im): per tag t
    the lcm den[t] of the den(c) D_A D_B of its parts, over which its
    numerators are; per output segment its tag, packed operator key and
    chart bits; per term its segment, packed key and numerator.  Zero sums
    are dropped.  With ``order`` "first" the segments, and the terms of
    each, come in first-occurrence order, the order of a term-by-term
    accumulation; with None they are sorted by segment.

    All parts are worked at once.  Blocks are (part, A key i, B key j,
    Leibniz row of i, word entry of word_mul(w_i, w_j)) in that nesting
    order, built by index arithmetic on arrays the tables keep.  A block
    multiplies each term of c1, A's key i, by each term of d^gamma c2, B's
    key j in the stack row of gamma, and scales the product by s = c *
    (den[t] / den of the part) * mult * word coefficient.  A lone A is
    A @ 1 with one Leibniz row per key.  Python loops over parts, never
    over blocks or terms.

    Exactness: numerators are int64 only where, for every segment, the sum
    over its blocks of |s|_1 ||c1||_1 ||d^gamma c2||_1 is below 2^62.
    That bounds every product, factor and partial sum the segment's terms
    go through, in any order.  Where it fails, the same calls run on
    Python ints.
    """
    parts = [(tag, c, ta, tb is None, _IDENTITY._table() if tb is None else tb)
             for tag, c, ta, tb in parts]
    rowmaps = [tb.diff_rows(ta.leibniz(lone)[-1])
               for _, _, ta, lone, tb in parts]
    den: dict = {}
    for tag, c, ta, _, tb in parts:
        den[tag] = lcm(den.get(tag, 1), c.d * ta.den * tb.den)
    ja, jl, jb, jw = _Joined(), _Joined(), _Joined(), _Joined()
    ka, kl, kb, kw, na, nb, nwb, tags, pcr, pci = ([] for _ in range(10))
    for tag, c, ta, lone, tb in parts:
        wa, wia = ta.words()
        wb, wib = tb.words()
        ka.append(ja.add(id(ta), ta.start[:-1], np.diff(ta.start), ta.l1(),
                         _chart_bits(ta.chart), wia, ta.tk, ta.re, ta.im))
        kl.append(jl.add((id(ta), lone), *ta.leibniz(lone)[:5]))
        start, tk, re, im, l1, bits = tb.stack()
        kb.append(jb.add(id(tb), wib, tb.okey & _DMASK, start, l1, bits, tk,
                         re, im))
        kw.append(jw.add((wa, wb), *_word_pairs(wa, wb)))
        na.append(ta.okey.size)
        nb.append(tb.okey.size)
        nwb.append(len(wb))
        tags.append(tag)
        f = den[tag] // (c.d * ta.den * tb.den)
        pcr.append(c.a * f)
        pci.append(c.b * f)
    na, nb, nwb, tags = (np.array(v, dtype=np.int64)
                         for v in (na, nb, nwb, tags))
    a_start = ja.column(0, 5)
    a_count, a_l1, a_bits, a_wia, a_tk, a_re, a_im = (
        ja.column(k) for k in range(1, 8))
    l_start = jl.column(0, 2)
    l_count, l_gam, l_mult, l_rest = (jl.column(k) for k in range(1, 5))
    d_start = jb.column(2, 5)
    b_wib, b_dpk, _, d_l1, d_bits, d_tk, d_re, d_im = (
        jb.column(k) for k in range(8))
    w_start = jw.column(0, 1)
    w_out, w_re, w_im = (jw.column(k) for k in range(1, 4))
    rowmap = np.concatenate(rowmaps)
    row_off = np.cumsum([0] + [r.size for r in rowmaps])[:-1]
    ka, kl, kb, kw = (np.array(v) for v in (ka, kl, kb, kw))
    # (part, i, j) pairs, then blocks
    pp, t = ragged(na * nb)
    i, j = np.divmod(t, nb[pp])
    ak = ja.offsets(0)[ka][pp] + i
    li = jl.offsets(0)[kl][pp] + i
    bj = jb.offsets(0)[kb][pp] + j
    wrow = jw.offsets(0)[kw][pp] + a_wia[ak] * nwb[pp] + b_wib[bj]
    nw = w_start[wrow + 1] - w_start[wrow]
    bq, t = ragged(l_count[li] * nw)
    q, r = np.divmod(t, nw[bq])
    pb, ak, j, bj = pp[bq], ak[bq], j[bq], bj[bq]
    l = l_start[li[bq]] + q
    e = w_start[wrow[bq]] + r
    g = rowmap[row_off[pb] + l_gam[l]]
    flat = jb.offsets(2)[kb][pb] + g * (nb[pb] + 1) + j
    s2 = d_start[flat]
    n2 = d_start[flat + 1] - s2
    fl = jb.offsets(3)[kb][pb] + g * nb[pb] + j
    okey = (w_out[e] << 40) | (l_rest[l] + b_dpk[bj])
    # s = (c.a + i c.b) f (wre + i wim) mult
    pcr, pci = int_array(pcr), int_array(pci)
    wr, wi, m, cr, ci = widen(
        float(np.abs(w_re).max() + np.abs(w_im).max()) * float(l_mult.max())
        * float(max(abs(a) + abs(b) for a, b in zip(pcr, pci))),
        w_re[e], w_im[e], l_mult[l], pcr[pb], pci[pb])
    sr = (wr * cr - wi * ci) * m
    si = (wr * ci + wi * cr) * m
    weight = l1_norms(sr, si) * a_l1[ak] * d_l1[fl]
    bits = np.where(n2 > 0, a_bits[ak] | d_bits[fl], 0)
    # output segments: distinct (tag, okey)
    ou, at = np.unique(okey, return_inverse=True)
    su, at = np.unique(tags[pb] * ou.size + at, return_inverse=True)
    bound = np.bincount(at, weight).max()
    seg_bits = np.zeros(su.size, dtype=np.int64)
    np.bitwise_or.at(seg_bits, at, bits)
    if (seg_bits == 3).any():
        raise ChartMismatch("cannot combine chart-A and chart-B expressions")
    # products, in windows of about _CHUNK: rows (block, term of c1),
    # scaled by s, then (row, term of d^gamma c2); each window is merged
    # with its zero sums kept, so the final merge sees every first position
    ar, ai, br, bi, sr, si = widen(bound, a_re, a_im, d_re, d_im, sr, si)
    n1 = np.where(n2 > 0, a_count[ak], 0)
    count = n1 * n2
    first = np.cumsum(count) - count
    cut = run_starts(first // _CHUNK)
    merged = []
    for b0, b1 in zip(cut, np.append(cut[1:], count.size)):
        bo, p1 = ragged(n1[b0:b1])
        bo += b0
        idx1 = a_start[ak][bo] + p1
        vr = ar[idx1] * sr[bo] - ai[idx1] * si[bo]
        vi = ar[idx1] * si[bo] + ai[idx1] * sr[bo]
        ro, p2 = ragged(n2[bo])
        idx2 = s2[bo][ro] + p2
        seg, tk = at[bo][ro], a_tk[idx1][ro] + d_tk[idx2]
        vr, vi = vr[ro], vi[ro]
        re = vr * br[idx2] - vi * bi[idx2]
        im = vr * bi[idx2] + vi * br[idx2]
        del vr, vi, ro, p2, idx2
        idx, re, im, pos = merge_terms(pair_key(seg, tk), re, im, drop=False)
        merged.append((seg[idx], tk[idx], re, im, pos + first[b0]))
    seg, tk, re, im, pos = (np.concatenate(a) for a in zip(*merged))
    idx, re, im, _ = merge_terms(pair_key(seg, tk), re, im, seg, order, pos)
    return (den, su // ou.size, ou[su % ou.size], seg_bits, seg[idx],
            tk[idx], re, im)


def _tagged(parts, tag=0):
    """``combine`` parts as ``_accumulate`` takes them, zero parts left
    out; raises ExponentRange where ``_Table.check`` does."""
    out = []
    for coef, a, b in parts:
        c = GaussRat.coerce(coef)
        if c and not a.is_structural_zero() and (
                b is None or not b.is_structural_zero()):
            out.append((tag, c, a._table().check(),
                        None if b is None else b._table().check()))
    return out


def _sum_table(den: int, okey, bits, seg, ks, tk, re, im) -> _Table:
    """The table of one merged sum from ``_accumulate``: segment seg[n]
    holds term n, each segment's terms start at ks, and okey and bits hold
    each segment's key and chart bits.  Divided by the gcd of den and all
    numerators."""
    g = gcd(den, int(np.gcd.reduce(re)), int(np.gcd.reduce(im)))
    if g > 1:
        re, im, den = re // g, im // g, den // g
    if re.dtype == object:
        re, im = int_array(re.tolist()), int_array(im.tolist())
    start = np.append(ks, seg.size)
    has_ap = np.add.reduceat((tk + _BIAS) >> 48 != 128, ks) > 0
    out = seg[ks]
    chart = np.where(has_ap, np.where(bits[out] & 1, CHART_A, CHART_B),
                     CHART_NONE)
    return _Table(okey[out], chart, start,
                  np.repeat(np.arange(ks.size), np.diff(start)), tk, re, im,
                  den)


class OperatorExpr:
    """Finite sum of c(x) * generator-word * derivative terms.

    Held as a dict of ScalarExpr coefficients, as a term table, or both:
    an operator built from coefficients gets its table when it is first
    composed or zero-tested, and a result of ``combine`` builds its
    ScalarExpr coefficients only when they are asked for.
    """

    __slots__ = ("_terms", "_tab")

    def __init__(self, terms: dict[tuple[Word, Deriv], ScalarExpr] | None = None):
        self._terms = {k: v for k, v in terms.items()
                       if not v.is_structural_zero()} if terms else {}
        self._tab = None

    @staticmethod
    def _of_table(tab: _Table) -> "OperatorExpr":
        op = object.__new__(OperatorExpr)
        op._terms = None
        op._tab = tab
        return op

    def _table(self) -> _Table:
        if self._tab is None:
            self._tab = _table_of_terms(self._terms)
        return self._tab

    def _dict(self) -> dict[tuple[Word, Deriv], ScalarExpr]:
        if self._terms is None:
            t = self._tab
            self._terms = {
                key: ScalarExpr.from_arrays(t.den, t.tk[a:b], t.re[a:b],
                                            t.im[a:b], chart)
                for key, chart, a, b in zip(t.keys, t.chart.tolist(),
                                            t.start[:-1].tolist(),
                                            t.start[1:].tolist())}
        return self._terms

    # constructors

    @staticmethod
    def zero() -> "OperatorExpr":
        return OperatorExpr()

    @staticmethod
    def identity() -> "OperatorExpr":
        return OperatorExpr.from_scalar(ScalarExpr.const(1))

    @staticmethod
    def from_scalar(c: ScalarExpr) -> "OperatorExpr":
        return OperatorExpr({((0, 0, 0), _ZERO_DERIV): c})

    @staticmethod
    def from_const(c) -> "OperatorExpr":
        return OperatorExpr.from_scalar(ScalarExpr.const(c))

    @staticmethod
    def deriv(i: int) -> "OperatorExpr":
        d = [0] * 5
        d[i] = 1
        return OperatorExpr({((0, 0, 0), tuple(d)): ScalarExpr.const(1)})

    @staticmethod
    def iso(a: int) -> "OperatorExpr":
        w = [0, 0, 0]
        w[a - 1] = 1
        return OperatorExpr({(tuple(w), _ZERO_DERIV): ScalarExpr.const(1)})

    # inspection

    def items(self):
        return self._dict().items()

    def float_terms(self):
        """(keys, charts, start, terms, values): every coefficient's terms
        in order, key k's at start[k]:start[k + 1], each as its key
        (mono, rp, ap) and its complex value, rounded from the exact one as
        ``GaussRat.to_complex`` rounds it; from the table, building no
        ScalarExpr or GaussRat."""
        t = self._table()
        den = t.den
        return (t.keys, t.chart.tolist(), t.start.tolist(),
                [unpack_key(k) for k in t.tk.tolist()],
                [complex(a / den, b / den)
                 for a, b in zip(t.re.tolist(), t.im.tolist())])

    def __len__(self):
        if self._terms is None:
            return self._tab.okey.size
        return len(self._terms)

    def term_count(self) -> int:
        if self._terms is None:
            return self._tab.tk.size
        return sum(len(c) for c in self._terms.values())

    def is_zero(self) -> bool:
        """Exact zero test of every coefficient at once, on the term table
        (``exact.nonzero_segments``); builds no ScalarExpr."""
        if not len(self):
            return True
        t = self._table()
        return not nonzero_segments(t.seg, t.tk, t.re, t.im,
                                    t.sign()[t.seg]).size

    def is_structural_zero(self) -> bool:
        return not len(self)

    # algebra: every operation is one ``combine``

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = OperatorExpr.from_const(other)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr.combine([(1, self, None), (1, other, None)])

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr.combine([(-1, self, None)])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = OperatorExpr.from_const(other)
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr.combine([(1, self, None), (-1, other, None)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Scaling by central constants only; use @ for composition."""
        if isinstance(other, (int, Fraction, GaussRat)):
            return OperatorExpr.combine([(other, self, None)])
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr.combine([(1, self, other)])

    @staticmethod
    def combine(parts) -> "OperatorExpr":
        """The sum over ``parts`` (coef, A, B) of coef * (A @ B), or of
        coef * A where B is None; coef is an int, Fraction or GaussRat.
        The one-element case of ``combine_many``."""
        return OperatorExpr.combine_many([parts])[0]

    @staticmethod
    def combine_many(sums) -> list["OperatorExpr"]:
        """``combine`` of each element of ``sums``, a list of parts.

        One ``_accumulate`` makes and merges the term products of all of
        them; each result is then divided by the gcd of its denominator
        and all its numerators.  Output keys, and the terms of each key,
        come in first-occurrence order.  No ScalarExpr or GaussRat is built
        until the coefficients are asked for.
        """
        sums = list(sums)
        out = [OperatorExpr() for _ in sums]
        tagged = [p for n, parts in enumerate(sums) for p in _tagged(parts, n)]
        if not tagged:
            return out
        den, tag, okey, bits, seg, tk, re, im = _accumulate(tagged, "first")
        if not seg.size:
            return out
        # tags, then segments, then terms come in runs, in that order
        ks = run_starts(seg)
        ts = run_starts(tag[seg[ks]])
        for a, z in zip(ts, np.append(ts[1:], ks.size)):
            lo, hi = ks[a], ks[z] if z < ks.size else seg.size
            out[tag[seg[lo]]] = OperatorExpr._of_table(_sum_table(
                den[tag[seg[lo]]], okey, bits, seg[lo:hi], ks[a:z] - lo,
                tk[lo:hi], re[lo:hi], im[lo:hi]))
        return out

    @staticmethod
    def combines_are_zero(sums) -> list[bool]:
        """For each element of ``sums``, a list of ``combine`` parts,
        whether that combine is zero: one ``_accumulate`` and one
        ``nonzero_segments`` for all of them, and no table, ScalarExpr or
        GaussRat built."""
        sums = list(sums)
        tagged = [p for n, parts in enumerate(sums) for p in _tagged(parts, n)]
        if not tagged:
            return [True] * len(sums)
        _, tag, _, bits, seg, tk, re, im = _accumulate(tagged, None)
        bad = set(tag[nonzero_segments(seg, tk, re, im,
                                       np.where(bits[seg] & 2, -1, 1))].tolist())
        return [n not in bad for n in range(len(sums))]

    def __repr__(self):
        return f"OperatorExpr({len(self)} terms, {self.term_count()} monomials)"


_IDENTITY = OperatorExpr.identity()

# ----- spin-1/2 function application ----------------------------------------

class IsoFun:
    """Two-component function on which operators act in the spin-1/2
    representation: generators as sigma_a/2, derivatives componentwise."""

    __slots__ = ("c",)

    def __init__(self, up: ScalarExpr, down: ScalarExpr):
        self.c = (up, down)

    def evaluate(self, p: Point5) -> tuple[complex, complex]:
        out = []
        for comp in self.c:
            v = comp.evaluate(p)
            out.append(v.to_complex() if isinstance(v, GaussRat) else complex(v))
        return tuple(out)


def apply(op: OperatorExpr, f: IsoFun) -> IsoFun:
    """Apply an operator to a two-component function, spin-1/2 generators.

    Accumulates raw term dicts and builds each component once; building
    the image through repeated ScalarExpr addition would copy the growing
    sum once per operator term.
    """
    acc: tuple[dict, dict] = ({}, {})
    charts = [CHART_NONE, CHART_NONE]
    for (w, d), coeff in op.items():
        g0 = f.c[0].multi_diff(d)
        g1 = f.c[1].multi_diff(d)
        m = word_matrix(w)
        h0 = g0 * m[0][0] + g1 * m[0][1]
        h1 = g0 * m[1][0] + g1 * m[1][1]
        for slot, h in ((0, h0), (1, h1)):
            if h.is_structural_zero():
                continue
            prod = coeff * h
            if prod.is_structural_zero():
                continue
            charts[slot] = _join_chart(charts[slot], prod.chart)
            a = acc[slot]
            for k, v in prod._t.items():
                prev = a.get(k)
                nv = v if prev is None else prev + v
                if nv:
                    a[k] = nv
                elif prev is not None:
                    del a[k]
    return IsoFun(ScalarExpr(acc[0], charts[0]),
                  ScalarExpr(acc[1], charts[1]))
