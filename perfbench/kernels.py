"""Isolated kernel timings of the exact stack, on fixed seeded operands.

Run as its own process:

    PYTHONPATH=src python3 perfbench/kernels.py --seed N --seconds S --out OUT.json

Each kernel is timed in repetitions until its share of S seconds is spent
(at least MIN_REPS). OUT.json holds, per kernel, the min and the median
time per operation over the repetitions and the operand sizes. A kernel
whose functions a later change removed is listed under "skipped".
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

perf = time.perf_counter
MIN_REPS = 5


def _repeat(fn, seconds: float) -> list[float]:
    """Call fn() (which returns seconds per operation) until `seconds` pass."""
    out = []
    end = perf() + seconds
    while len(out) < MIN_REPS or perf() < end:
        out.append(fn())
    return out


def _gaussrat_pairs(rng: random.Random):
    """2000 operand pairs, numerators below 2^20 and denominators at most
    2^12, so each product or sum takes a real gcd."""
    from hkit.exact import GaussRat

    def one():
        return GaussRat(rng.randint(-2**20, 2**20), rng.randint(-2**20, 2**20),
                        rng.randint(1, 2**12))

    pairs = [(one(), one()) for _ in range(2000)]
    return pairs, {"pairs": len(pairs),
                   "max_denominator": max(max(x.d, y.d) for x, y in pairs)}


def gaussrat_mul(rng, seconds):
    pairs, sizes = _gaussrat_pairs(rng)

    def once():
        t = perf()
        for x, y in pairs:
            x * y
        return (perf() - t) / len(pairs)

    return [v * 1e9 for v in _repeat(once, seconds)], sizes


def gaussrat_add(rng, seconds):
    pairs, sizes = _gaussrat_pairs(rng)

    def once():
        t = perf()
        for x, y in pairs:
            x + y
        return (perf() - t) / len(pairs)

    return [v * 1e9 for v in _repeat(once, seconds)], sizes


def scalar_mul(rng, seconds):
    """Product of two of the widest (7-term) field-tensor components."""
    from hkit.exact import CHART_A
    from hkit.gauge import field_tensor

    f = field_tensor(1, CHART_A)[1][4]
    g = field_tensor(2, CHART_A)[1][3]

    def once():
        n = 20
        t = perf()
        for _ in range(n):
            f * g
        return (perf() - t) / n

    fg = f * g
    return ([v * 1e6 for v in _repeat(once, seconds)],
            {"left_terms": len(f), "right_terms": len(g),
             "product_terms": len(fg),
             "max_denominator": max(c.d for _, c in fg.items())})


def word_mul(rng, seconds):
    """Normal ordering of one word pair, both memos cleared each time."""
    from hkit import operators

    w1, w2 = (2, 1, 2), (1, 2, 1)

    def once():
        n = 20
        total = 0.0
        for _ in range(n):
            operators._WORD_MEMO.clear()
            operators._GEN_MEMO.clear()
            t = perf()
            operators.word_mul(w1, w2)
            total += perf() - t
        return total / n

    return ([v * 1e6 for v in _repeat(once, seconds)],
            {"left_word": list(w1), "right_word": list(w2),
             "result_words": len(operators.word_mul(w1, w2))})


def mm_pair(rng, seconds):
    """One Mt_0 @ Mt_1 on freshly built operators: new coefficient objects
    (cold derivative caches) and cleared word memos every repetition."""
    from hkit import operators
    from hkit.params import UnitParams
    from hkit.symmetry import build_operators

    def once():
        operators._WORD_MEMO.clear()
        operators._GEN_MEMO.clear()
        ops = build_operators(UnitParams())
        t = perf()
        ops.M[0] @ ops.M[1]
        return perf() - t

    ops = build_operators(UnitParams())
    return (_repeat(once, seconds),
            {"left_terms": ops.M[0].term_count(),
             "right_terms": ops.M[1].term_count(),
             "product_terms": (ops.M[0] @ ops.M[1]).term_count()})


KERNELS = {
    "exact.gaussrat_mul_ns": gaussrat_mul,
    "exact.gaussrat_add_ns": gaussrat_add,
    "exact.scalar_mul_us": scalar_mul,
    "operators.word_mul_us": word_mul,
    "operators.mm_pair_s": mm_pair,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    share = args.seconds / len(KERNELS)
    doc = {"kernels": {}, "skipped": {}}
    for name, kernel in KERNELS.items():
        try:
            vals, operands = kernel(rng, share)
        except (ImportError, AttributeError) as exc:
            doc["skipped"][name] = f"{type(exc).__name__}: {exc}"
            continue
        doc["kernels"][name] = {"min": min(vals),
                                "median": statistics.median(vals),
                                "reps": len(vals), "operands": operands}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
