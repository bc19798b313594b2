"""Experiment configuration: defaults, flat key=value files, CLI overrides.

Precedence is defaults < config file < command-line flags. The file format
is one `key = value` per line with `#` comments; lists are comma-separated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ValidationError

# every key a config file may set, with its coercion
_LIST_INT = ("n_grid", "budget_grid")
_LIST_FLOAT = ("p",)
_SCALAR_INT = ("seed", "grid_cells")
_SCALAR_FLOAT = ("delta", "epsilon", "eps_reference")
_SCALAR_STR = ("out",)
KNOWN_KEYS = _LIST_INT + _LIST_FLOAT + _SCALAR_INT + _SCALAR_FLOAT + _SCALAR_STR


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
        if not self.p or min(self.p) <= 0.0:
            raise ValidationError("p must be a nonempty list of positive reals")
        if abs(sum(self.p) - 1.0) > 1e-9:
            raise ValidationError(f"p sums to {sum(self.p)}, expected 1")
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


def _ascending(name, grid, minimum, required):
    if not grid:
        if required:
            raise ValidationError(f"{name} must be nonempty")
        return
    if any(int(v) != v for v in grid):
        raise ValidationError(f"{name} entries must be integers")
    if grid[0] < minimum or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{name} must be strictly ascending, entries >= {minimum}")


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
            if key not in KNOWN_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value.strip()
    return raw


def _coerce(key: str, value):
    if isinstance(value, str):
        try:
            if key in _LIST_INT:
                return tuple(int(v) for v in value.split(",") if v.strip()) if value else ()
            if key in _LIST_FLOAT:
                return tuple(float(v) for v in value.split(",") if v.strip())
            if key in _SCALAR_INT:
                return int(value)
            if key in _SCALAR_FLOAT:
                return float(value)
            return value
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {value!r}") from exc
    if key in _LIST_INT:
        return tuple(int(v) for v in value)
    if key in _LIST_FLOAT:
        return tuple(float(v) for v in value)
    return value


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional file plus explicit overrides."""
    values = {}
    if path is not None:
        values.update(parse_config_file(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in KNOWN_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        values[key] = val
    kwargs = {k: _coerce(k, v) for k, v in values.items()}
    return ExperimentConfig(**kwargs)


def with_updates(config: ExperimentConfig, **kwargs) -> ExperimentConfig:
    return replace(config, **kwargs)
