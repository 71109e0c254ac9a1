"""Command-line entry point.

Subcommands:

    transform   map rational points and print images with identity defects
    radial      solve a radial eigenproblem and tabulate the spectrum
    spectrum    exact bound-state table from the symmetry labels
    report      run the configured suites and emit the full report

`hkit report` is the one run command for the verification suites:
`--suites` picks a subset, and `--config` sets units, tolerances and
grids such as the charge quadrature nodes.

Exit codes: 0 all checks pass, 1 some check failed, 2 configuration or
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .config import SuiteConfig, load_config
from .errors import (
    BadDimension,
    ConfigError,
    HkitError,
    InvalidQuantumNumbers,
    OrderingViolation,
)
from .params import UnitParams
from .radial import (
    RadialProblem,
    coulomb_level,
    oscillator_level,
    solve_coulomb,
    solve_modified,
    solve_oscillator,
)
from .report import emit_report, exit_code
from .spectrum import energy_levels
from .suites import run_suite
from .transforms import MAP_DIMS, euler_defect, transform_map


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(","))


def _write(text: str, out: str | None) -> None:
    """Write to stdout, or to the file ``out``; a path that cannot be
    written is a usage error (exit 2), not a failed check."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc


# ----- transform ------------------------------------------------------------

def _cmd_transform(args) -> int:
    rows = []
    for u in args.u:
        if len(u) != args.D:
            raise ConfigError(f"point {','.join(map(str, u))} has "
                              f"{len(u)} components, expected {args.D}")
        x = transform_map(u)
        rows.append({
            "u": [str(c) for c in u],
            "x": [str(c) for c in x],
            "defect": str(euler_defect(u)),
        })
    if args.format == "json":
        _write(json.dumps({"D": args.D, "points": rows},
                          sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = []
        for row in rows:
            lines.append(f"u = ({', '.join(row['u'])})")
            lines.append(f"x = ({', '.join(row['x'])})")
            lines.append(f"norm defect x.x - (u.u)^2 = {row['defect']}")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if all(r["defect"] == "0" for r in rows) else 1


# ----- radial ---------------------------------------------------------------

def _radial_problem(args) -> RadialProblem:
    kw = dict(mass=args.mass, hbar=args.hbar, n_points=args.n_points)
    if args.kind == "oscillator":
        return RadialProblem.oscillator(args.D, args.L, args.omega, **kw)
    if args.kind == "coulomb":
        return RadialProblem.coulomb(float(args.d), float(args.l), args.e2, **kw)
    if not args.coeffs:
        raise ConfigError("--kind modified requires --coeffs c0,c1[,c2,...]")
    return RadialProblem.modified(tuple(float(c) for c in args.coeffs),
                                  D=args.D, L=args.L, **kw)


def _cmd_radial(args) -> int:
    solver = {"oscillator": solve_oscillator, "coulomb": solve_coulomb,
              "modified": solve_modified}[args.kind]
    reference = {"oscillator": oscillator_level, "coulomb": coulomb_level,
                 "modified": None}[args.kind]
    rows = []
    try:
        with np.errstate(over="raise"):
            problem = _radial_problem(args)
            result = solver(problem, levels=args.levels)
            for k, energy in enumerate(result.eigenvalues):
                ref = reference(problem, k) if reference is not None else None
                rows.append({
                    "level": k,
                    "energy": float(energy),
                    "reference": None if ref is None else float(ref),
                    "rel_error": (None if ref is None
                                  else abs(float(energy) - ref) / abs(ref)),
                    "convergence": float(result.convergence[k]),
                })
    except ValueError as exc:  # RadialProblem's and the solvers' input checks
        raise ConfigError(str(exc)) from None
    except ArithmeticError as exc:  # finite inputs beyond a float's range
        raise ConfigError(f"input out of floating-point range: {exc}") from None
    if args.format == "json":
        doc = {"kind": problem.kind, "dim": problem.dim, "ell": problem.ell,
               "box": result.box, "n_points": problem.n_points, "levels": rows}
        _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    elif args.format == "csv":
        lines = ["level,energy,reference,rel_error,convergence"]
        for r in rows:
            ref = "" if r["reference"] is None else f"{r['reference']!r}"
            err = "" if r["rel_error"] is None else f"{r['rel_error']:.3e}"
            lines.append(f"{r['level']},{r['energy']!r},{ref},{err},"
                         f"{r['convergence']:.3e}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{args.kind} problem: dim={problem.dim} ell={problem.ell} "
                 f"box={result.box:.3f} n_points={problem.n_points}",
                 f"{'level':>5} {'energy':>20} {'reference':>20} "
                 f"{'rel_error':>10} {'convergence':>12}"]
        for r in rows:
            ref = "" if r["reference"] is None else f"{r['reference']:.12g}"
            err = "" if r["rel_error"] is None else f"{r['rel_error']:.3e}"
            lines.append(f"{r['level']:>5} {r['energy']:>20.12g} {ref:>20} "
                         f"{err:>10} {r['convergence']:>12.3e}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


# ----- spectrum -------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    try:
        params = UnitParams(hbar=args.hbar, mu0=args.mu0, e2=args.e2)
    except ValueError as exc:  # UnitParams' positivity check
        raise ConfigError(str(exc)) from None
    levels = energy_levels(args.T, args.levels, params)
    rows = []
    for lv in levels:
        cas = lv.casimirs()
        rows.append({"N": lv.N, "energy": str(lv.energy),
                     "mu1": str(cas.mu1), "c2": str(cas.c2),
                     "c3": str(cas.c3), "c4": str(cas.c4)})
    if args.format == "json":
        doc = {"T": str(args.T),
               "units": {"hbar": str(args.hbar), "mu0": str(args.mu0),
                         "e2": str(args.e2)},
               "levels": rows}
        _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [f"T = {args.T}   hbar = {args.hbar}   mu0 = {args.mu0}   "
                 f"e2 = {args.e2}",
                 f"{'N':>4} {'energy':>16} {'mu1':>6} {'C2':>10} "
                 f"{'C3':>12} {'C4':>14}"]
        for r in rows:
            lines.append(f"{r['N']:>4} {r['energy']:>16} {r['mu1']:>6} "
                         f"{r['c2']:>10} {r['c3']:>12} {r['c4']:>14}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


# ----- report ---------------------------------------------------------------

def _cmd_report(args) -> int:
    cfg = load_config(args.config, {"suites": args.suites, "seed": args.seed,
                                    "jobs": args.jobs})
    report = run_suite(cfg)
    _write(emit_report(report, args.format), args.out)
    return exit_code(report)


# ----- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkit",
        description="Verification harness for the oscillator-monopole "
                    "correspondence: bilinear transforms, gauge fields, "
                    "topological charge, operator algebra, and spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    tr = subs.add_parser("transform",
                         help="apply the bilinear map to rational points")
    tr.add_argument("--D", type=int, choices=sorted(MAP_DIMS), default=8,
                    help="input dimension of the map")
    tr.add_argument("--u", type=_fraction_list, action="append", required=True,
                    metavar="C0,C1,...", help="point as comma-separated "
                    "rationals; repeatable")
    tr.add_argument("--format", choices=("text", "json"), default="text")
    tr.add_argument("--out", metavar="PATH")
    tr.set_defaults(func=_cmd_transform)

    ra = subs.add_parser("radial", help="solve a radial eigenproblem")
    ra.add_argument("--kind", choices=("oscillator", "coulomb", "modified"),
                    default="oscillator")
    ra.add_argument("--D", type=int, default=8, help="oscillator/modified dimension")
    ra.add_argument("--L", type=int, default=0, help="oscillator/modified angular label")
    ra.add_argument("--omega", type=float, default=1.0, help="oscillator frequency")
    ra.add_argument("--d", type=_fraction, default=Fraction(5),
                    help="dual-space dimension (coulomb)")
    ra.add_argument("--l", type=_fraction, default=Fraction(0),
                    help="dual angular label (coulomb), may be half-integer")
    ra.add_argument("--e2", type=float, default=1.0, help="coulomb coupling")
    ra.add_argument("--coeffs", type=_fraction_list, metavar="C0,C1,...",
                    help="modified-potential coefficients of r, r^2, ...")
    ra.add_argument("--levels", type=int, default=3)
    ra.add_argument("--n-points", type=int, default=4096, dest="n_points")
    ra.add_argument("--mass", type=float, default=1.0)
    ra.add_argument("--hbar", type=float, default=1.0)
    ra.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ra.add_argument("--out", metavar="PATH")
    ra.set_defaults(func=_cmd_radial)

    sp = subs.add_parser("spectrum", help="exact bound-state table")
    sp.add_argument("--T", type=_fraction, default=Fraction(0),
                    help="isospin label, integer or half-integer")
    sp.add_argument("--levels", type=int, default=5)
    sp.add_argument("--e2", type=_fraction, default=Fraction(1))
    sp.add_argument("--hbar", type=_fraction, default=Fraction(1))
    sp.add_argument("--mu0", type=_fraction, default=Fraction(1))
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", metavar="PATH")
    sp.set_defaults(func=_cmd_spectrum)

    re = subs.add_parser("report", help="run the configured suites")
    re.add_argument("--suites", type=lambda t: tuple(t.split(",")),
                    metavar="NAME,NAME,...",
                    help=f"subset of {', '.join(SuiteConfig().suites)} or all")
    re.add_argument("--config", metavar="PATH",
                    help="INI config file (sections: run, units, tolerances, grids)")
    re.add_argument("--seed", type=int, help="override the sampling seed")
    re.add_argument("--jobs", type=int, help="run suites in up to N worker processes")
    re.add_argument("--format", choices=("text", "json", "csv"), default="json")
    re.add_argument("--out", metavar="PATH", help="write output to a file")
    re.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidQuantumNumbers, OrderingViolation,
            BadDimension) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
