"""Configuration loading: precedence, validation, and the JSON echo."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from hkit.config import (
    DEFAULT_TOLERANCES,
    ENV_SEED,
    SUITES,
    SuiteConfig,
    config_echo,
    load_config,
    normalize_suites,
)
from hkit.errors import ConfigError


def test_defaults():
    cfg = SuiteConfig()
    assert cfg.suites == SUITES
    assert cfg.seed == 20240814
    assert cfg.hbar == 1 and cfg.mu0 == 1 and cfg.e2 == 1
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.charge_nodes == (16, 16, 8, 8)
    assert cfg.jobs == 1


def test_normalize_suites():
    assert normalize_suites(["all"]) == SUITES
    assert normalize_suites(["algebra", "euler"]) == ("euler", "algebra")
    assert normalize_suites([" charge ", "charge", ""]) == ("charge",)
    with pytest.raises(ConfigError):
        normalize_suites(["euler", "nope"])
    with pytest.raises(ConfigError):
        normalize_suites([])


def test_file_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nsuites = charge, euler\nseed = 7\njobs = 2\n"
        "[units]\nhbar = 2\nmu0 = 3/2\ne2 = 1/4\n"
        "[tolerances]\ncharge_refinement = 1e-9\n"
        "[grids]\ncharge_nodes = 8, 8, 4, 4\nn_points = 128\n")
    cfg = load_config(str(path))
    assert cfg.suites == ("euler", "charge")
    assert cfg.seed == 7
    assert cfg.jobs == 2
    assert cfg.hbar == 2
    assert cfg.mu0 == Fraction(3, 2)
    assert cfg.e2 == Fraction(1, 4)
    assert cfg.tolerances["charge_refinement"] == 1e-9
    assert cfg.tolerances["round_trip"] == 1e-12  # untouched default
    assert cfg.charge_nodes == (8, 8, 4, 4)
    assert cfg.n_points == 128


def test_readme_config_example_loads(tmp_path):
    """The INI example in the README is a config the parser accepts."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (example,) = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
    path = tmp_path / "readme.ini"
    path.write_text(example)
    cfg = load_config(str(path))
    assert cfg.suites == ("charge", "algebra")
    assert cfg.mu0 == Fraction(3, 2)
    assert cfg.n_points == 4096


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.ini")


def test_stray_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 1\n[extras]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config sections"):
        load_config(str(path))


@pytest.mark.parametrize("body,fragment", [
    ("[run]\nseed = many\n", "seed"),
    ("[units]\nmu0 = 1/0\n", "mu0"),
    ("[tolerances]\ncharge = tight\n", "tolerance"),
    ("[grids]\ncharge_radius = wide\n", "charge_radius"),
    ("[grids]\nn_points = 1e4\n", "n_points"),
])
def test_bad_values(tmp_path, body, fragment):
    path = tmp_path / "run.ini"
    path.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        load_config(str(path))


def test_env_seed_overrides_file(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\n")
    monkeypatch.setenv(ENV_SEED, "99")
    assert load_config(str(path)).seed == 99
    monkeypatch.setenv(ENV_SEED, "not-a-seed")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_overrides_beat_env(monkeypatch):
    monkeypatch.setenv(ENV_SEED, "99")
    cfg = load_config(None, {"seed": 3, "jobs": None})
    assert cfg.seed == 3
    assert cfg.jobs == 1  # None overrides are ignored


def test_unknown_override_key():
    with pytest.raises(ConfigError):
        load_config(None, {"does_not_exist": 1})


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"jobs": 0},
    {"n_points": 32},
    {"mu0": Fraction(0)},
    {"charge_nodes": (16, 16, 8)},
    {"charge_nodes": (16, 16, 8, 0)},
    {"tolerances": {"charge": 1e-10}},
    {"tolerances": {"charge_refinement": 1e-12, "mystery": 1e-3}},
    {"tolerances": {"charge_refinement": 2.0}},
    {"hbar": Fraction(0)},
    {"e2": Fraction(-1)},
    {"suites": ("nope",)},
    {"tolerances": {"charge_refinement": float("nan")}},
    {"charge_nodes": (0, 16, 8, 8)},
])
def test_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        SuiteConfig(**kwargs)


def test_config_echo_is_json_ready():
    echo = config_echo(SuiteConfig(mu0=Fraction(3, 2)))
    text = json.dumps(echo, sort_keys=True)
    back = json.loads(text)
    assert back["units"]["mu0"] == "3/2"
    assert back["charge_nodes"] == [16, 16, 8, 8]
    assert list(back["tolerances"]) == sorted(DEFAULT_TOLERANCES)
    assert set(back) == {"suites", "seed", "units", "tolerances", "charge_nodes",
                         "n_points", "jobs"}
