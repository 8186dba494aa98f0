"""Run configuration: schema validation and environment overrides.

The config file is JSON. Unknown keys are rejected at every level so typos
fail fast instead of silently running defaults. The potential section is
checked by :meth:`tspec.potential.Potential.from_dict`.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, DomainError
from .potential import Potential, finite_real

ENV_PREFIX = "TSPEC_"

_TOP_KEYS = {"potential", "variant", "spectrum", "charfun", "asymptotics",
             "gamma", "validate", "tolerances", "out"}
_SECTION_KEYS = {
    "spectrum": {"region", "depth", "n"},
    "charfun": {"k", "region", "nx", "ny"},
    "asymptotics": {"theorem", "n", "spectrum"},
    "gamma": {"route", "spectrum", "probe", "k0", "taus"},
    "validate": {"spectrum", "contours", "gamma_tol", "theorem"},
    "tolerances": {"rtol", "rtol_refine", "rtol_winding"},
}


@dataclass
class RunConfig:
    potential: dict
    variant: str
    spectrum: dict = field(default_factory=dict)
    charfun: dict = field(default_factory=dict)
    asymptotics: dict = field(default_factory=dict)
    gamma: dict = field(default_factory=dict)
    validate: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    out: Optional[str] = None

    @property
    def rtol(self) -> float:
        return float(self.tolerances.get("rtol", 1e-12))

    @property
    def rtol_refine(self) -> float:
        return float(self.tolerances.get("rtol_refine", 1e-13))

    @property
    def rtol_winding(self) -> float:
        return float(self.tolerances.get("rtol_winding", 1e-9))


def _check_keys(name: str, mapping: dict, allowed: set):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _sequence(value, size: int, check) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == size and all(map(check, value))


def check_values(cfg: RunConfig):
    """Reject malformed tolerance and spectrum values with ConfigError.

    Run on every config and again after command-line overrides.
    """
    for key, value in cfg.tolerances.items():
        if not (finite_real(value) and value > 0):
            raise ConfigError(f"tolerances.{key} must be a positive finite number, got {value!r}")
    spec = cfg.spectrum
    n, r, depth = spec.get("n", [0, 0]), spec.get("region", [0, 1, 0, 1]), spec.get("depth", 1)
    if not (_sequence(n, 2, _is_int) and n[0] <= n[1]):
        raise ConfigError(f"spectrum.n must be two integers lo <= hi, got {n!r}")
    if not (_sequence(r, 4, finite_real) and r[0] < r[1] and r[2] < r[3]):
        raise ConfigError("spectrum.region must be four finite numbers with sigma0 < sigma1 "
                          f"and tau0 < tau1, got {r!r}")
    if not (_is_int(depth) and depth > 0):
        raise ConfigError(f"spectrum.depth must be a positive integer, got {depth!r}")


def validate_config(raw: dict) -> RunConfig:
    """Validate the raw mapping and build a RunConfig. Raises ConfigError."""
    _check_keys("config", raw, _TOP_KEYS)
    if "potential" not in raw:
        raise ConfigError("config requires a 'potential' section")
    if "variant" not in raw:
        raise ConfigError("config requires 'variant' (robin or dirichlet)")
    variant = raw["variant"]
    if variant not in ("robin", "dirichlet"):
        raise ConfigError(f"variant must be 'robin' or 'dirichlet', got {variant!r}")
    pot = raw["potential"]
    try:
        Potential.from_dict(pot)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    if variant == "robin" and "h" not in pot:
        raise ConfigError("robin variant requires 'h' in the potential section")
    for section, keys in _SECTION_KEYS.items():
        if section in raw:
            _check_keys(section, raw[section], keys)
    cfg = RunConfig(
        potential=pot,
        variant=variant,
        spectrum=raw.get("spectrum", {}),
        charfun=raw.get("charfun", {}),
        asymptotics=raw.get("asymptotics", {}),
        gamma=raw.get("gamma", {}),
        validate=raw.get("validate", {}),
        tolerances=raw.get("tolerances", {}),
        out=raw.get("out"),
    )
    check_values(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(raw)


def env_overrides(environ=None) -> dict:
    """TSPEC_-prefixed environment overrides for the global CLI flags."""
    environ = os.environ if environ is None else environ
    out = {}
    if ENV_PREFIX + "TOL" in environ:
        try:
            out["tol"] = float(environ[ENV_PREFIX + "TOL"])
        except ValueError:
            raise ConfigError("TSPEC_TOL must be a float") from None
    if ENV_PREFIX + "OUT" in environ:
        out["out"] = environ[ENV_PREFIX + "OUT"]
    if ENV_PREFIX + "CONFIG" in environ:
        out["config"] = environ[ENV_PREFIX + "CONFIG"]
    return out
