"""Workload definitions: configs, timed bodies and correctness gates.

The configs are written from explicit keys. `default.cfg` is never read and
`threads` is never set, so every command runs on the package default of one
thread. The parent process (`run.py`) only needs `WORKLOADS` and
`write_config`; everything that imports entlab runs in the worker.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import math
import os
import signal
import statistics
import time

# science keys of the reference table, shared by every workload
SCIENCE = {"delta": 0.95, "epsilon": 0.1, "eps_reference": 0.01, "grid_cells": 50}

# config overrides per workload, and the exact integers entlab gives per n
WORKLOADS = {
    "reference": {
        "config": {"p": (0.75, 0.25), "n_grid": (64, 256, 1024, 4096)},
        "c_star": {64: 30, 256: 63, 1024: 129, 4096: 264},
        "classes": {64: 65, 256: 257, 1024: 1025, 4096: 4097},
    },
    "dilution_d2": {
        "config": {"p": (0.75, 0.25), "n_grid": (1024, 4096, 8192, 16384)},
        "c_star": {1024: 129, 4096: 264, 8192: 376, 16384: 535},
        "classes": {1024: 1025, 4096: 4097, 8192: 8193, 16384: 16385},
    },
    "classes_d4": {
        "config": {"p": (0.4, 0.3, 0.2, 0.1), "n_grid": (25, 50, 100)},
        "c_star": {25: 16, 50: 23, 100: 33},
        # after merging equal eigenvalues (176,851 compositions at n = 100)
        "classes": {25: 676, 50: 2601, 100: 10201},
    },
    # budget searches at d = 2, n <= 12, whose low-budget probes materialize,
    # and the standardization battery; the CLI commands are not run here
    "protocols": {
        "config": {"p": (0.75, 0.25), "n_grid": tuple(range(2, 13))},
        "c_star": {n: n for n in range(2, 13)},
        "battery": 200,
    },
}

COMMANDS = ("spectrum", "inefficiency", "communication", "concentration")
MATCH_TOL = 1e-9  # ensemble and dense-path agreement, as the test suite uses
# the dense oracle's cost grows about 20x per doubling of d (15 s at d = 32)
DENSE_CHECK_MAX_DIM = 16
# calibration loops run between two stages, and how often one runs during a stage
CAL_BETWEEN = 3
SAMPLE_EVERY_S = 0.1
# generator seed of the battery's programs (the acceptance test's battery uses it too)
PROGRAM_SEED = 505


def write_config(path: str, workload: str, seed: int, out: str):
    keys = dict(SCIENCE, **WORKLOADS[workload]["config"], seed=seed, out=out)
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in keys.items():
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            fh.write(f"{key} = {val}\n")


@functools.lru_cache(maxsize=None)
def _cal_inputs():
    import numpy as np

    m = np.random.default_rng(0).standard_normal((8, 8))
    return np, m, m + m.T, 3**20000


def calibrate() -> float:
    """Seconds one fixed loop takes now (a few ms).

    The loop mixes what entlab's hot paths do: tuple and dict churn and
    float math in pure Python, big-integer products, and numpy calls on
    small matrices.
    """
    np, m, h, big = _cal_inputs()
    t0 = time.perf_counter()
    table = {}
    for i in range(1, 1501):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        _ = [math.sqrt(j + i) for j in range(4)]
    acc = 1
    for i in range(1, 251):
        acc = (acc * (i | 1)) % (1 << 2048)
    for i in range(3):
        acc ^= big * (big + i)
    a = m
    for _ in range(75):
        a = np.tanh(a @ m * 0.1)
        np.linalg.eigh(h)
        np.einsum("ij,jk->ik", a, m)
    return time.perf_counter() - t0


class Run:
    """Operation tally and timed-body duration of one worker.

    `run_s` is the wall time of the timed stages. `run_cal` divides each
    stage's wall time by the calibration loop's time while it ran, so a
    stage that ran while the host was slow counts the same as one that ran
    while it was fast. The loop's time is the mean of CAL_BETWEEN loops just
    before and as many just after the stage, and of the loops that a SIGALRM
    handler runs every SAMPLE_EVERY_S during it. `clock` leaves out the
    handler's time, so neither the stage nor a traced span counts it.
    """

    def __init__(self):
        self.run_s = 0.0
        self.run_cal = 0.0
        self.cal_s = []  # CAL_BETWEEN loops between each two stages
        self.attempted = 0
        self.errors = []
        self._active = False
        self._stage_cal = []
        self._paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _on_alarm(self, signum, frame):
        if not self._active:
            return
        t0 = time.perf_counter()
        self._stage_cal.append(calibrate())
        self._paused += time.perf_counter() - t0

    def timed(self, fn, *args):
        """Run one stage inside the timed window; collect garbage and calibrate outside it.

        A stage's closing calibration is the next stage's opening one.
        """
        gc.collect()
        if not self.cal_s:
            self.cal_s += [calibrate() for _ in range(CAL_BETWEEN)]
        self._stage_cal = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = self.clock()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # a handler that runs before this line is inside [t0, t1] and left out
            self._active = False
            t1 = self.clock()
            signal.signal(signal.SIGALRM, previous)
        self.cal_s += [calibrate() for _ in range(CAL_BETWEEN)]
        loop_s = statistics.mean(self.cal_s[-2 * CAL_BETWEEN:] + self._stage_cal)
        self.run_s += t1 - t0
        self.run_cal += (t1 - t0) / loop_s
        return out

    def fail(self, op, msg):
        self.errors.append(f"{op}: {msg}")

    @property
    def failed_ops(self):
        return len({e.split(":", 1)[0] for e in self.errors})


def _cli_command(cli, name, cfg_path, run):
    run.attempted += 1
    try:
        code = cli.main([name, "--config", cfg_path])
    except Exception as exc:  # noqa: BLE001 - a crashing command is a failed operation
        run.fail(name, f"raised {type(exc).__name__}: {exc}")
        return
    if code != 0:
        run.fail(name, f"exit code {code}")


def run_pipeline(cli, cfg_path, run):
    for name in COMMANDS:
        run.timed(_cli_command, cli, name, cfg_path, run)


# spot-check messages name the file they re-derive; map it to its command
_FILE_COMMAND = {
    "residuals": "spectrum",
    "inefficiency": "inefficiency",
    "communication": "communication",
    "certificate": "communication",
    "concentration": "concentration",
}


def gate_pipeline(workload, config, run) -> str:
    """Re-derive sampled rows, check certificates and the exact integers.

    Returns the digest of the science outputs.
    """
    from entlab.lab import spot_check_outputs

    want = WORKLOADS[workload]
    try:
        problems = spot_check_outputs(config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"{c} outputs unreadable: {type(exc).__name__}: {exc}" for c in COMMANDS]
    for msg in problems:
        run.fail(next((c for k, c in _FILE_COMMAND.items() if msg.startswith(k)), "spectrum"), msg)
    for n in config.n_grid:
        try:
            with open(os.path.join(config.out, "certificates", f"cert_n{n}.json")) as fh:
                cert = json.load(fh)
            with open(os.path.join(config.out, f"spectrum_n{n}.json")) as fh:
                classes = len(json.load(fh)["classes"])
        except (OSError, ValueError, KeyError) as exc:
            run.fail("communication", f"n={n}: {type(exc).__name__}: {exc}")
            continue
        if not cert["consistent"]:
            run.fail("communication", f"certificate at n={n} not consistent")
        if cert["c_star"] != want["c_star"][n]:
            run.fail("communication", f"c*({n}) = {cert['c_star']}, want {want['c_star'][n]}")
        if classes != want["classes"][n]:
            run.fail("spectrum", f"{classes} classes at n={n}, want {want['classes'][n]}")
    return digest_dir(config.out)


def digest_dir(path: str) -> str:
    """sha256 over every science output file, by relative path and bytes."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def battery_inputs(seed: int, count: int):
    """The battery's programs, each with a pure input drawn from the workload seed.

    The programs come from PROGRAM_SEED, not from the workload seed: one
    program's cost is heavy-tailed (a single one can take 1.5 s), so two
    seeds' batteries of 200 differ by up to 1.8x in cost, and a seed-drawn
    battery would measure the draw instead of the code.
    """
    import numpy as np
    from entlab.locc import random_toy_ir
    from entlab.qmath import PureBipartiteState
    from entlab.sampling import random_pure

    programs = np.random.default_rng(PROGRAM_SEED)
    states = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ir = random_toy_ir(programs, max_dim=4, rounds=3)
        amp = random_pure(states, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        out.append((ir, PureBipartiteState(ir.dim_a, ir.dim_b, amp)))
    return out


def _battery(programs, run):
    # layer functions are looked up at call time so a traced run sees its wrappers
    locc = importlib.import_module("entlab.locc")
    results = []
    for i, (ir, st) in enumerate(programs):
        run.attempted += 1
        try:
            sf = locc.standardize(ir, st)
            ens = locc.run_standard_form(sf, st)
            ref = locc.group_by_message(locc.simulate_dense(ir, st))
            results.append((i, sf.message_bits, ir.message_bits(), locc.compare_ensembles(ens, ref)))
        except Exception as exc:  # noqa: BLE001 - a crashing program is a failed operation
            run.fail(f"program {i}", f"raised {type(exc).__name__}: {exc}")
    return results


def _searches(config, run):
    import numpy as np

    commands = importlib.import_module("entlab.lab.commands")
    locc = importlib.import_module("entlab.locc")
    spectrum = importlib.import_module("entlab.spectrum")
    base = spectrum.BaseSpectrum(np.asarray(config.p, dtype=float))
    results = []
    for n in config.n_grid:
        run.attempted += 1
        try:
            spec = spectrum.tensor_power_spectrum(base, n)
            budget, _, report = commands.find_min_budget(spec, n, config.epsilon)
            proto, _ = locc.build_block_dilution(spec, budget, eps_target=config.epsilon)
            dense = None
            d = commands.dilution_dim(proto)
            if isinstance(proto, locc.StandardFormProtocol) and d <= DENSE_CHECK_MAX_DIM:
                dense = locc.run_protocol_dense(proto, d, spec, n=n)[1]
            results.append((n, budget, report, dense))
        except Exception as exc:  # noqa: BLE001 - a crashing search is a failed operation
            run.fail(f"search n={n}", f"raised {type(exc).__name__}: {exc}")
    return results


def _reports_agree(a, b) -> bool:
    if a.c != b.c or abs(a.s - b.s) > MATCH_TOL or abs(a.epsilon - b.epsilon) > MATCH_TOL:
        return False
    if len(a.per_outcome) != len(b.per_outcome):
        return False
    return all(
        abs(x.prob - y.prob) <= MATCH_TOL and abs(x.error - y.error) <= MATCH_TOL
        for x, y in zip(a.per_outcome, b.per_outcome)
    )


def run_protocols(config, seed, run):
    """Timed body of `protocols`; returns what its gate checks."""
    programs = battery_inputs(seed, WORKLOADS["protocols"]["battery"])
    searches = run.timed(_searches, config, run)
    battery = run.timed(_battery, programs, run)
    return searches, battery


def gate_protocols(searches, battery, run) -> str:
    """Check searches and battery; return the digest of the search results."""
    want = WORKLOADS["protocols"]["c_star"]
    rows = []
    for n, budget, report, dense in searches:
        op = f"search n={n}"
        if budget != want[n]:
            run.fail(op, f"c* = {budget}, want {want[n]}")
        if dense is not None and not _reports_agree(report, dense):
            run.fail(op, "run_protocol disagrees with run_protocol_dense")
        rows.append("%d,%d,%.12g,%.12g" % (n, budget, report.epsilon, report.s))
    for i, bits_sf, bits_ir, (tv, worst) in battery:
        op = f"program {i}"
        if bits_sf != bits_ir:
            run.fail(op, f"message bits {bits_ir} became {bits_sf}")
        if not (tv < MATCH_TOL and worst < MATCH_TOL):
            run.fail(op, f"ensemble drift tv={tv} D={worst}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()
