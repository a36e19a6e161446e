"""Flat key=value configuration with CLI overrides.

The format is intentionally small: ``key = value`` lines and ``#``
comments; any other line is an error.  Values stay strings until a
resolver interprets them, so the same machinery feeds fluxes, data,
matrices and check expressions.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .fluxes import make_flux
from .pwfun import PiecewiseConstantFn

__all__ = [
    "ConfigError",
    "parse_config_text",
    "load_config",
    "apply_overrides",
    "get_value",
    "resolve_datum",
    "resolve_flux",
    "resolve_matrix",
    "resolve_check",
    "DATUM_HELP",
]


class ConfigError(ValueError):
    """Malformed configuration text or an unresolvable value."""


def parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = value.strip()
    return cfg


def load_config(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(cfg: dict[str, str], overrides) -> dict[str, str]:
    """Apply ``key=value`` strings on top of ``cfg`` (last one wins)."""
    out = dict(cfg)
    for item in overrides:
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"override {item!r} is not of the form key=value")
        out[key.strip()] = value.strip()
    return out


_REQUIRED = object()


def get_value(cfg: dict[str, str], key: str, kind=str, default=_REQUIRED):
    """Typed lookup; ``kind`` in (str, int, float)."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key {key!r}")
        return default
    raw = cfg[key]
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


DATUM_HELP = """\
datum specs:
  riemann UL UR [X0]        single jump at X0 (default 0)
  pulse H X0 X1             H on [X0, X1), 0 outside
  steps V0 X1 V1 [X2 V2...] V0 left of X1, then V1, ...
  file PATH                 step function in the text format
"""


def resolve_datum(spec: str) -> PiecewiseConstantFn:
    """Build a scalar step datum from a textual spec; see ``DATUM_HELP``."""
    toks = spec.split()
    if not toks:
        raise ConfigError("empty datum spec")
    kind, args = toks[0], toks[1:]
    try:
        if kind == "riemann" and len(args) in (2, 3):
            uL, uR = float(args[0]), float(args[1])
            x0 = float(args[2]) if len(args) == 3 else 0.0
            return PiecewiseConstantFn.step(x0, uL, uR)
        if kind == "pulse" and len(args) == 3:
            h, x0, x1 = map(float, args)
            if not x0 < x1:
                raise ValueError("pulse needs x0 < x1")
            return PiecewiseConstantFn.from_steps(0.0, [(x0, h), (x1, 0.0)])
        if kind == "steps" and len(args) >= 3 and len(args) % 2 == 1:
            tail = float(args[0])
            pieces = [(float(args[i]), float(args[i + 1]))
                      for i in range(1, len(args), 2)]
            return PiecewiseConstantFn.from_steps(tail, pieces)
        if kind == "file" and len(args) == 1:
            return PiecewiseConstantFn.from_text(Path(args[0]).read_text())
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad datum spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown datum spec {spec!r}\n{DATUM_HELP}")


def resolve_flux(spec: str, K: tuple[float, float]):
    try:
        return make_flux(spec, K)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_matrix(spec: str) -> np.ndarray:
    """A square matrix, either JSON rows or ``diag a b ...``."""
    spec = spec.strip()
    try:
        if spec.startswith("diag"):
            vals = [float(t) for t in spec.split()[1:]]
            if not vals:
                raise ValueError("diag needs entries")
            return np.diag(vals)
        M = np.asarray(json.loads(spec), dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"not square: shape {M.shape}")
        return M
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad matrix spec {spec!r}: {exc}") from exc


def _number(tok: str, least: float = -math.inf) -> float:
    """``float(tok)``, rejecting NaN and values below ``least``."""
    x = float(tok)
    if not x >= least:
        raise ValueError(f"{tok} is not a number >= {least!r}")
    return x


def resolve_check(spec: str):
    """Compile a check expression into ``(predicate, description)``.

    Grammar: ``<= X`` | ``>= X`` | ``== X TOL`` | ``in LO HI``.  A spec
    that no value can pass is an error: a NaN bound, a negative tolerance
    or ``LO > HI``.
    """
    toks = spec.split()
    try:
        if toks[0] == "<=" and len(toks) == 2:
            x = _number(toks[1])
            return (lambda v: v <= x), f"value <= {x!r}"
        if toks[0] == ">=" and len(toks) == 2:
            x = _number(toks[1])
            return (lambda v: v >= x), f"value >= {x!r}"
        if toks[0] == "==" and len(toks) == 3:
            x, tol = _number(toks[1]), _number(toks[2], 0.0)
            return (lambda v: abs(v - x) <= tol), f"|value - {x!r}| <= {tol!r}"
        if toks[0] == "in" and len(toks) == 3:
            lo = _number(toks[1])
            hi = _number(toks[2], lo)
            return (lambda v: lo <= v <= hi), f"value in [{lo!r}, {hi!r}]"
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad check spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown check spec {spec!r}")
