"""Self-test: the reduced pipeline plus CSV re-derivation.

`spot_check_outputs` re-derives sampled rows of every CSV a config's
commands wrote, through the operations that produced them. `run_selftest`
runs all four commands on a reduced grid into a temporary directory and
spot-checks what they wrote. Hand values and randomized oracles live in the
test suite.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np

from ..locc import concentrate
from ..logdomain import exact_int_digits
from ..sigsub import min_dilution_dimension
from ..spectrum import BaseSpectrum, berry_esseen_residual, grid_windows, tensor_power_spectrum
from .commands import (
    _fmt,
    cmd_communication,
    cmd_concentration,
    cmd_inefficiency,
    cmd_spectrum,
    probe_budget,
    residual_grid,
)
from .config import ExperimentConfig


def _approx(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _read_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sample(rows: list, k: int = 8) -> list:
    step = max(1, len(rows) // k)
    return rows[::step]


def read_certificate(out: str, n: int) -> dict:
    """The certificate cmd_communication wrote for n under out, with its
    exact ints, which pass 4300 decimal digits from n = 17500 at d = 2."""
    path = os.path.join(out, "certificates", f"cert_n{n}.json")
    with open(path, "r", encoding="utf-8") as fh, exact_int_digits():
        return json.load(fh)


def residual_problems(config: ExperimentConfig, rows: list, spec_of) -> list:
    """Re-derive residuals.csv rows; spec_of(n) gives the n-fold spectrum.

    A row is re-derived from the unrounded endpoints of the residual_grid
    cell whose printed (a, b) it carries, since an endpoint on a class
    eigenvalue, rounded to 12 digits, can leave the slice slack. A row
    that prints no cell's endpoints is reported.
    """
    cells = {}

    def cells_of(n):
        if n not in cells:
            table = cells[n] = {}
            for a, bs in grid_windows(spec_of(n), *residual_grid(config.grid_cells)):
                for b in bs.tolist():
                    table.setdefault((_fmt(a), _fmt(b)), []).append((a, b))
        return cells[n]

    def rederives(row, a, b):
        res = berry_esseen_residual(spec_of(int(row[0])), a, b)
        return (
            _approx(res.residual, float(row[3]))
            and _approx(res.bound, float(row[4]))
            and (row[5] == "true") == res.passed
        )

    bad = []
    for row in rows:
        windows = cells_of(int(row[0])).get((row[1], row[2]), ())
        if not any(rederives(row, a, b) for a, b in windows):
            bad.append(f"residuals.csv row not re-derivable: {row}")
    return bad


def spot_check_outputs(config: ExperimentConfig) -> list:
    """Re-derive sampled rows of every CSV in config.out via module calls."""
    bad = []
    base = BaseSpectrum(np.asarray(config.p, dtype=float))
    specs = {}

    def spec_of(n):
        if n not in specs:
            specs[n] = tensor_power_spectrum(base, n)
        return specs[n]

    path = os.path.join(config.out, "residuals.csv")
    _, rows = _read_csv(path)
    bad.extend(residual_problems(config, _sample(rows), spec_of))

    path = os.path.join(config.out, "inefficiency.csv")
    _, rows = _read_csv(path)
    for row in _sample(rows):
        n = int(row[0])
        md = min_dilution_dimension(spec_of(n), config.eps_reference)
        if not (_approx(md.lower_log2, float(row[2])) and _approx(md.upper_log2, float(row[3]))):
            bad.append(f"inefficiency.csv row not re-derivable: {row}")

    path = os.path.join(config.out, "communication.csv")
    _, rows = _read_csv(path)
    for row in _sample(rows, k=4):
        n, c_star = int(row[0]), int(row[1])
        spec = spec_of(n)
        ok = probe_budget(spec, c_star, config.epsilon)[0]
        if ok and c_star > 0:
            ok = not probe_budget(spec, c_star - 1, config.epsilon)[0]
        if not (ok and _approx(spec.stats.alpha * math.sqrt(n), float(row[2]))):
            bad.append(f"communication.csv row not minimal or wrong: {row}")
        doc = read_certificate(config.out, n)
        if doc["c_star"] != c_star or not doc["consistent"]:
            bad.append(f"certificate at n={n} inconsistent with table")

    path = os.path.join(config.out, "concentration.csv")
    _, rows = _read_csv(path)
    for row in _sample(rows):
        n = int(row[0])
        res = concentrate(spec_of(n))
        if not (
            _approx(res.expected_yield, float(row[2])) and _approx(res.deficit, float(row[3]))
        ):
            bad.append(f"concentration.csv row not re-derivable: {row}")
    return bad


def run_selftest(config: ExperimentConfig) -> int:
    """Run a reduced pipeline and re-derive sampled rows of its outputs.

    n = 8, 32, 64, six grid cells and no budget sweep replace n_grid,
    grid_cells and budget_grid, and the outputs go to a temporary directory;
    p, epsilon, delta and eps_reference are read from config. Prints each
    problem found and returns their count.
    """
    with tempfile.TemporaryDirectory(prefix="entlab-selftest-") as tmp:
        reduced = replace(config, n_grid=(8, 32, 64), grid_cells=6, out=tmp, budget_grid=())
        for cmd in (cmd_spectrum, cmd_inefficiency, cmd_communication, cmd_concentration):
            cmd(reduced)
        problems = spot_check_outputs(reduced)
    for msg in problems:
        print(f"FAIL {msg}")
    print(f"{len(problems)} problems re-deriving the reduced pipeline's outputs")
    return len(problems)
