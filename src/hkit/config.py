"""Run configuration: suite selection, units, tolerances, grids, seed.

Configuration files use the stock INI key=value format so they stay
diff-friendly and need no extra dependency:

    [run]
    suites = charge, algebra
    seed = 7
    jobs = 2

    [units]
    hbar = 1
    mu0 = 3/2
    e2 = 1

    [tolerances]
    charge_refinement = 1e-12

    [grids]
    charge_nodes = 16, 16, 8, 8
    n_points = 4096

Precedence: built-in defaults < config file < HKIT_SEED environment
variable (seed only) < explicit overrides from command-line flags.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError

SUITES = ("euler", "gauge", "field", "charge", "algebra", "casimir",
          "spectrum", "radial")

DEFAULT_TOLERANCES = {
    "charge_refinement": 1e-12,
    "round_trip": 1e-12,
    "casimir_numeric": 1e-8,
    "radial_rel": 1e-6,
    "radial_law": 1e-5,
    "radial_residual": 1e-4,
}

ENV_SEED = "HKIT_SEED"

# The keys each fixed section accepts; [tolerances] is checked against
# DEFAULT_TOLERANCES by SuiteConfig.
_SECTION_KEYS = {
    "run": {"suites", "seed", "jobs"},
    "units": {"hbar", "mu0", "e2"},
    "grids": {"charge_nodes", "n_points"},
}


@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple[str, ...] = SUITES
    seed: int = 20240814
    hbar: Fraction = Fraction(1)
    mu0: Fraction = Fraction(1)
    e2: Fraction = Fraction(1)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    charge_nodes: tuple[int, int, int, int] = (16, 16, 8, 8)
    n_points: int = 4096
    jobs: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "suites", normalize_suites(self.suites))
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if self.n_points < 64:
            raise ConfigError(f"n_points must be at least 64, got {self.n_points}")
        if len(self.charge_nodes) != 4 or any(n < 1 for n in self.charge_nodes):
            raise ConfigError(f"charge_nodes needs four counts >= 1, got {self.charge_nodes}")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}")
            if not (0 < value < 1):
                raise ConfigError(f"tolerance {name} must lie in (0, 1), got {value}")
        for name in ("hbar", "mu0", "e2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


def normalize_suites(names) -> tuple[str, ...]:
    """Expand 'all' and validate, preserving the canonical order."""
    requested = set()
    for raw in names:
        name = raw.strip().lower()
        if not name:
            continue
        if name == "all":
            requested.update(SUITES)
        elif name in SUITES:
            requested.add(name)
        else:
            raise ConfigError(f"unknown suite {raw!r}; expected one of "
                              f"{', '.join(SUITES)} or all")
    if not requested:
        raise ConfigError("no suites selected")
    return tuple(s for s in SUITES if s in requested)


def _parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse {name} = {text!r} as a rational") from exc


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} = {text!r} as an integer") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> SuiteConfig:
    """Assemble a SuiteConfig from defaults, a file, HKIT_SEED, and overrides."""
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        stray = set(parser.sections()) - {*_SECTION_KEYS, "tolerances"}
        if stray:
            raise ConfigError(f"unknown config sections: {', '.join(sorted(stray))}")
        for section, keys in _SECTION_KEYS.items():
            if parser.has_section(section):
                stray = set(parser[section]) - keys
                if stray:
                    raise ConfigError(f"unknown keys in [{section}]: "
                                      f"{', '.join(sorted(stray))}")
        if parser.has_section("run"):
            run = parser["run"]
            if "suites" in run:
                values["suites"] = tuple(run["suites"].split(","))
            if "seed" in run:
                values["seed"] = _parse_int(run["seed"], "seed")
            if "jobs" in run:
                values["jobs"] = _parse_int(run["jobs"], "jobs")
        if parser.has_section("units"):
            for name in ("hbar", "mu0", "e2"):
                if name in parser["units"]:
                    values[name] = _parse_fraction(parser["units"][name], name)
        if parser.has_section("tolerances"):
            tols = dict(DEFAULT_TOLERANCES)
            for name, text in parser["tolerances"].items():
                try:
                    tols[name] = float(text)
                except ValueError as exc:
                    raise ConfigError(f"cannot parse tolerance {name} = {text!r}") from exc
            values["tolerances"] = tols
        if parser.has_section("grids"):
            grids = parser["grids"]
            if "charge_nodes" in grids:
                values["charge_nodes"] = tuple(
                    _parse_int(t, "charge_nodes") for t in grids["charge_nodes"].split(","))
            if "n_points" in grids:
                values["n_points"] = _parse_int(grids["n_points"], "n_points")

    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        values["seed"] = _parse_int(env_seed, ENV_SEED)

    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value

    try:
        return SuiteConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(cfg: SuiteConfig) -> dict:
    """JSON-ready snapshot of a configuration, rationals as strings."""
    return {
        "suites": list(cfg.suites),
        "seed": cfg.seed,
        "units": {"hbar": str(cfg.hbar), "mu0": str(cfg.mu0), "e2": str(cfg.e2)},
        "tolerances": {k: cfg.tolerances[k] for k in sorted(cfg.tolerances)},
        "charge_nodes": list(cfg.charge_nodes),
        "n_points": cfg.n_points,
        "jobs": cfg.jobs,
    }
