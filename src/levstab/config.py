"""JSON run configuration: parsing, validation, round-trip export."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .model import (
    ControlGains,
    ExcitationParams,
    HybridParams,
    PhysicalParams,
    kinematic_excitation,
    validate,
)
from .plant import hybrid_gamma

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "dump_config"]


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


_PHYSICAL_KEYS = {"m", "C", "R", "g", "z0", "L", "J"}
_PHYSICAL_REQUIRED = {"m", "C", "R", "z0"}
_EXC_KEYS = {"A", "Omega", "theta", "v", "d"}
_GAIN_KEYS = {"Kp", "Kd"}
_HYBRID_KEYS = {"beta"}
_TOP_KEYS = {"physical", "excitation", "gains", "hybrid"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description assembled from a JSON document."""

    params: PhysicalParams
    exc: ExcitationParams
    gains: ControlGains | None = None
    hybrid: HybridParams | None = None


def _require_mapping(obj, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(section: dict, allowed: set, required: set, name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(sorted(unknown))}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {name}: {', '.join(sorted(missing))}")


def _number(section: dict, key: str, name: str) -> float:
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name}.{key} must be a number, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{name}.{key} must be finite, got {val!r}")
    return float(val)


def parse_config(doc: dict) -> RunConfig:
    """Build a validated RunConfig from a decoded JSON document.

    The excitation block accepts either direct (Omega, theta) or kinematic
    (v, d) parameters; giving both is an error because they would compete
    for the same quantities.
    """
    _require_mapping(doc, "configuration")
    _check_keys(doc, _TOP_KEYS, {"physical", "excitation"}, "configuration")

    phys = _require_mapping(doc["physical"], "physical")
    _check_keys(phys, _PHYSICAL_KEYS, _PHYSICAL_REQUIRED, "physical")
    kwargs = {k: _number(phys, k, "physical") for k in phys}
    try:
        params = PhysicalParams(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    exc_doc = _require_mapping(doc["excitation"], "excitation")
    _check_keys(exc_doc, _EXC_KEYS, {"A"}, "excitation")
    direct = {"Omega", "theta"} & set(exc_doc)
    kinematic = {"v", "d"} & set(exc_doc)
    if direct and kinematic:
        raise ConfigError(
            "excitation must give either Omega/theta or v/d, not a mixture"
        )
    a = _number(exc_doc, "A", "excitation")
    if kinematic:
        if kinematic != {"v", "d"}:
            raise ConfigError("kinematic excitation needs both v and d")
        exc = kinematic_excitation(
            v=_number(exc_doc, "v", "excitation"),
            d=_number(exc_doc, "d", "excitation"),
            L=params.L,
            A=a,
        )
    else:
        if "Omega" not in exc_doc:
            raise ConfigError("excitation needs Omega (or v and d)")
        exc = ExcitationParams(
            A=a,
            Omega=_number(exc_doc, "Omega", "excitation"),
            theta=_number(exc_doc, "theta", "excitation") if "theta" in exc_doc else 0.0,
        )

    try:
        validate(params, exc)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    gains = None
    if "gains" in doc:
        gd = _require_mapping(doc["gains"], "gains")
        _check_keys(gd, _GAIN_KEYS, _GAIN_KEYS, "gains")
        gains = ControlGains(Kp=_number(gd, "Kp", "gains"), Kd=_number(gd, "Kd", "gains"))

    hybrid = None
    if "hybrid" in doc:
        hd = _require_mapping(doc["hybrid"], "hybrid")
        _check_keys(hd, _HYBRID_KEYS, _HYBRID_KEYS, "hybrid")
        beta = _number(hd, "beta", "hybrid")
        if beta < 0:
            raise ConfigError("hybrid.beta must be nonnegative")
        hybrid = HybridParams(beta=beta, gamma=hybrid_gamma(params, beta))

    return RunConfig(params=params, exc=exc, gains=gains, hybrid=hybrid)


def load_config(path) -> RunConfig:
    """Read and parse a JSON configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read configuration {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return parse_config(doc)


def dump_config(cfg: RunConfig) -> dict:
    """Inverse of parse_config, ready to embed in a JSON product.

    Kinematic inputs are preserved when the excitation was built from them.
    """
    doc: dict = {
        "physical": {
            "m": cfg.params.m,
            "C": cfg.params.C,
            "R": cfg.params.R,
            "g": cfg.params.g,
            "z0": cfg.params.z0,
            "L": cfg.params.L,
            "J": cfg.params.J,
        }
    }
    if cfg.exc.v is not None and cfg.exc.d is not None:
        doc["excitation"] = {"A": cfg.exc.A, "v": cfg.exc.v, "d": cfg.exc.d}
    else:
        doc["excitation"] = {"A": cfg.exc.A, "Omega": cfg.exc.Omega, "theta": cfg.exc.theta}
    if cfg.gains is not None:
        doc["gains"] = {"Kp": cfg.gains.Kp, "Kd": cfg.gains.Kd}
    if cfg.hybrid is not None:
        doc["hybrid"] = {"beta": cfg.hybrid.beta}
    return doc
