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

import numpy as np

from ..locc import concentrate
from ..sigsub import min_dilution_dimension
from ..spectrum import BaseSpectrum, berry_esseen_residual, tensor_power_spectrum
from .commands import (
    cmd_communication,
    cmd_concentration,
    cmd_inefficiency,
    cmd_spectrum,
    probe_budget,
)
from .config import ExperimentConfig, with_updates


def _approx(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _read_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sample(rows: list, k: int = 8) -> list:
    step = max(1, len(rows) // k)
    return rows[::step]


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
    for row in _sample(rows):
        n, a, b = int(row[0]), float(row[1]), float(row[2])
        res = berry_esseen_residual(spec_of(n), a, b)
        if not (
            _approx(res.residual, float(row[3]))
            and _approx(res.bound, float(row[4]))
            and (row[5] == "true") == res.passed
        ):
            bad.append(f"residuals.csv row not re-derivable: {row}")

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
        cert_path = os.path.join(config.out, "certificates", f"cert_n{n}.json")
        with open(cert_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
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
    """Run the reduced pipeline and spot-check its outputs; print each
    problem found and return their count."""
    with tempfile.TemporaryDirectory(prefix="entlab-selftest-") as tmp:
        reduced = with_updates(config, n_grid=(8, 32, 64), grid_cells=6, out=tmp, budget_grid=())
        for cmd in (cmd_spectrum, cmd_inefficiency, cmd_communication, cmd_concentration):
            cmd(reduced)
        problems = spot_check_outputs(reduced)
    for msg in problems:
        print(f"FAIL {msg}")
    print(f"{len(problems)} problems re-deriving the reduced pipeline's outputs")
    return len(problems)
