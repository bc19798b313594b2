"""Experiment configuration: defaults, flat key=value files, CLI overrides.

Precedence is defaults < config file < command-line flags. The file format
is one `key = value` per line with `#` comments; lists are comma-separated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ..errors import ValidationError


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the experiment commands.

    `delta` drives significant-subspace queries, `epsilon` is the dilution
    error target for the communication search, and `eps_reference` is the
    fixed reference accuracy used by the inefficiency table. `budget_grid`,
    when nonempty, adds an explicit budget sweep to the communication run.
    """

    p: tuple = (0.75, 0.25)
    n_grid: tuple = (64, 256, 1024, 4096)
    delta: float = 0.95
    epsilon: float = 0.1
    eps_reference: float = 0.01
    budget_grid: tuple = ()
    grid_cells: int = 50
    # no command reads seed; it stays a known key only because the
    # benchmark's write_config still writes it into every workload config
    seed: int = 0
    out: str = "results"

    def __post_init__(self):
        if not isinstance(self.p, (tuple, list)):
            raise ValidationError(f"p must be a list of real numbers, got {self.p!r}")
        object.__setattr__(self, "p", tuple(_real("p", v) for v in self.p))
        # a nan compares false both ways, so it must be caught by name
        if not self.p or not all(math.isfinite(v) and v > 0.0 for v in self.p):
            raise ValidationError(f"p must be a nonempty list of positive finite reals, got {self.p}")
        if abs(sum(self.p) - 1.0) > 1e-9:
            raise ValidationError(f"p sums to {sum(self.p)}, expected 1")
        # integral values are stored as int, whatever type they came in
        for name in ("n_grid", "budget_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (tuple, list)):
                raise ValidationError(f"{name} must be a list of integers, got {grid!r}")
            object.__setattr__(self, name, tuple(_integer(name, v) for v in grid))
        for name in ("grid_cells", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("delta", "epsilon", "eps_reference"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not isinstance(self.out, str):
            raise ValidationError(f"out: {self.out!r} is not a string")
        _ascending("n_grid", self.n_grid, minimum=1, required=True)
        _ascending("budget_grid", self.budget_grid, minimum=0, required=False)
        if not 0.0 < self.delta <= 1.0:
            raise ValidationError("delta must be in (0, 1]")
        if not 0.0 < self.epsilon < 2.0:
            raise ValidationError("epsilon must be in (0, 2)")
        if not 0.0 < self.eps_reference < 2.0:
            raise ValidationError("eps_reference must be in (0, 2)")
        if self.grid_cells < 2:
            raise ValidationError("grid_cells must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")


def _integer(name, value) -> int:
    """value as an int when it is integral; a ValidationError naming the field otherwise."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name}: {value!r} is not an integer")


def _real(name, value) -> float:
    """value as a float when it is a real number other than a bool; a
    ValidationError naming the field otherwise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValidationError(f"{name}: {value!r} is not a real number")


def _ascending(name, grid, minimum, required):
    if not grid:
        if required:
            raise ValidationError(f"{name} must be nonempty")
        return
    if grid[0] < minimum or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{name} must be strictly ascending, entries >= {minimum}")


def _list_of(kind):
    """Parse a comma-separated string, or convert a sequence, into a tuple."""

    def parse(value):
        if isinstance(value, str):
            value = [v for v in value.split(",") if v.strip()]
        return tuple(kind(v) for v in value)

    return parse


def _scalar(kind):
    """Parse a string; a value that is not a string is kept as it is."""
    return lambda value: kind(value) if isinstance(value, str) else value


# every key a config file may set, with its parser
_PARSERS = {
    "p": _list_of(float),
    "n_grid": _list_of(_scalar(int)),
    "delta": _scalar(float),
    "epsilon": _scalar(float),
    "eps_reference": _scalar(float),
    "budget_grid": _list_of(_scalar(int)),
    "grid_cells": _scalar(int),
    "seed": _scalar(int),
    "out": _scalar(str),
}


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines into a raw string map."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _PARSERS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value.strip()
    return raw


def _coerce(key: str, value):
    try:
        return _PARSERS[key](value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad value for {key}: {value!r}") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional file plus explicit overrides."""
    values = {}
    if path is not None:
        values.update(parse_config_file(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _PARSERS:
            raise ValidationError(f"unknown config key {key!r}")
        values[key] = val
    kwargs = {k: _coerce(k, v) for k, v in values.items()}
    return ExperimentConfig(**kwargs)
