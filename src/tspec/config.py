"""Run configuration: schema validation.

The config file is JSON. Unknown keys are rejected at every level so typos
fail fast instead of silently running defaults, and every key that is
accepted is read by some command and has its value checked. The potential
section is checked by :meth:`tspec.potential.Potential.from_dict`.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Optional

from .asymptotics import THEOREM_TAGS
from .errors import ConfigError, DomainError
from .potential import VARIANTS, Potential, finite_real


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _list_of(value, check) -> bool:
    return isinstance(value, (list, tuple)) and all(map(check, value))


def _region(r) -> bool:
    return _list_of(r, finite_real) and len(r) == 4 and r[0] < r[1] and r[2] < r[3]


def _path(value) -> bool:
    return isinstance(value, str) and "\0" not in value


_REGION = (_region, "four finite numbers with sigma0 < sigma1 and tau0 < tau1")
_PATH = (_path, "a file path string")
_POSITIVE = (lambda v: finite_real(v) and v > 0, "a positive finite number")

# The keys each section accepts, each with its value check and the check's wording.
_SECTIONS = {
    "spectrum": {
        "n": (lambda n: _list_of(n, _is_int) and len(n) == 2 and 0 <= n[0] <= n[1],
              "two integers 0 <= lo <= hi"),
        "region": _REGION,
        "depth": (lambda d: _is_int(d) and d > 0, "a positive integer"),
    },
    "charfun": {"region": _REGION},
    "validate": {
        "spectrum": _PATH,
        "contours": (lambda c: _list_of(c, lambda n: _is_int(n) and n >= 0),
                     "a list of non-negative integers"),
        "theorem": (lambda tag: tag in THEOREM_TAGS, f"one of {', '.join(THEOREM_TAGS)}"),
    },
    "tolerances": {"rtol": _POSITIVE, "rtol_refine": _POSITIVE},
}
_TOP_KEYS = {"potential", "variant", "out"} | set(_SECTIONS)


@dataclass
class RunConfig:
    potential: dict
    variant: str
    spectrum: dict = field(default_factory=dict)
    charfun: dict = field(default_factory=dict)
    validate: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    out: Optional[str] = None

    @property
    def rtol(self) -> float:
        return float(self.tolerances.get("rtol", 1e-12))

    @property
    def rtol_refine(self) -> float:
        return float(self.tolerances.get("rtol_refine", 1e-13))


def _check_keys(name: str, mapping: dict, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")


def check_values(cfg: RunConfig):
    """Reject malformed section values and a malformed out path with ConfigError.

    Run on every config and again after command-line overrides.
    """
    for section, rules in _SECTIONS.items():
        for key, value in getattr(cfg, section).items():
            check, wording = rules[key]
            if not check(value):
                raise ConfigError(f"{section}.{key} must be {wording}, got {value!r}")
    if cfg.out is not None and not _path(cfg.out):
        raise ConfigError(f"out must be a file path string, got {cfg.out!r}")


def validate_config(raw: dict) -> RunConfig:
    """Validate the raw mapping and build a RunConfig. Raises ConfigError."""
    _check_keys("config", raw, _TOP_KEYS)
    if "potential" not in raw:
        raise ConfigError("config requires a 'potential' section")
    if "variant" not in raw:
        raise ConfigError(f"config requires 'variant', one of {VARIANTS}")
    variant = raw["variant"]
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    pot = raw["potential"]
    try:
        Potential.from_dict(pot)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    if variant == "robin" and "h" not in pot:
        raise ConfigError("robin variant requires 'h' in the potential section")
    for section, rules in _SECTIONS.items():
        if section in raw:
            _check_keys(section, raw[section], rules)
    cfg = RunConfig(
        potential=pot,
        variant=variant,
        spectrum=raw.get("spectrum", {}),
        charfun=raw.get("charfun", {}),
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
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(raw)

