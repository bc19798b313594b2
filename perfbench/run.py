#!/usr/bin/env python3
"""entlab benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Every iteration is a fresh worker process (worker.py) that imports entlab
from ./src, runs the workload's timed body and gates its outputs. The run
starts iterations until --seconds have passed, then reports medians.
With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones, plus trace.overhead_s. The last line of stdout
is the result object; the line before it holds run metadata (versions,
git rev, line count of src/entlab, output digest, per-iteration values).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SETUPS = 3  # setup_s is the median over at least this many fresh processes
DEADLINE_S = 170.0  # the whole run must end within 180 s
ITERATION_METRICS = ("run_cal", "run_s", "cal_s", "peak_rss_mb")


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes one after another and keeps their results."""

    def __init__(self, root, work, workload, seed, deadline):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.count = 0
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        # one BLAS thread: the worker then uses one core, as entlab's own threads = 1 does;
        # OpenBLAS's second thread made the protocols battery slower and noisier on 2 cores
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            OPENBLAS_NUM_THREADS="1",
        )

    def spawn(self, traced=False, setup_only=False) -> dict:
        i = self.count
        self.count += 1
        cfg = os.path.join(self.work, f"run{i}.cfg")
        out = os.path.join(self.work, f"out{i}")
        result = os.path.join(self.work, f"result{i}.json")
        log_path = os.path.join(self.work, f"worker{i}.log")
        write_config(cfg, self.workload, self.seed, out)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--config", cfg, "--result", result, "--trace", str(int(traced)),
            "--spans", os.path.join(self.work, f"spans{i}.json"),
        ]
        if setup_only:
            cmd.append("--setup-only")
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd + ["--t0", repr(t0)],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=log,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {i} passed the {DEADLINE_S:.0f} s deadline") from None
            finally:
                # also on SIGINT or SIGTERM: never leave a worker behind
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        shutil.rmtree(out, ignore_errors=True)
        if code != 0 or not os.path.exists(result):
            with open(log_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker {i} exited with {code}:\n{tail}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def _git_rev(root) -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def _src_lines(root) -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(root, "src", "entlab")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entlab", "lab", "cli.py")):
        print("perfbench: ./src/entlab not found; run from the repository root", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    start = time.monotonic()
    runner = Runner(root, work, args.workload, args.seed, start + DEADLINE_S)
    plain, traced = [], []
    try:
        # a traced run alternates, so its untraced twin sees the same machine state
        while not plain or (args.trace and not traced) or time.monotonic() - start < args.seconds:
            trace_this = bool(args.trace) and len(traced) < len(plain)
            (traced if trace_this else plain).append(runner.spawn(traced=trace_this))
        setups = [r["setup_s"] for r in plain + traced]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(runner.spawn(setup_only=True)["setup_s"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    iterations = plain + traced
    digests = sorted({r["digest"] for r in iterations})
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    errors = [e for r in iterations for e in r["errors"]]
    if len(digests) > 1:
        errors.append(f"science outputs differ between iterations: {digests}")
        failed += 1

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        # from the run_cal ratio, which the host's drift between workers does not move
        ratio = median(traced, "run_cal") / median(plain, "run_cal")
        values["trace.overhead_s"] = median(plain, "run_s") * (ratio - 1.0)
    else:
        values = {k: median(plain, k) for k in ITERATION_METRICS}
        values["setup_s"] = statistics.median(setups)
    # names and units come from BENCHMARK.json; a declared metric left unmeasured raises
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "setup_samples": setups,
        "run_s": median(plain, "run_s"),
        "per_iteration": [{k: r[k] for k in ITERATION_METRICS} for r in iterations],
        "digest": digests[0] if len(digests) == 1 else digests,
        "errors": errors[:20],
        "git_rev": _git_rev(root),
        "versions": iterations[0]["versions"],
        "nproc": os.cpu_count(),
        "src_entlab_lines": _src_lines(root),
    }
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
