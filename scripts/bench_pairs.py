#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as BENCH_<label>.json.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD --label my_change \\
        --change "what the change does" --workload protocols --pairs 10

Each pair runs perfbench/run.py once on the parent revision and once on the
working tree, on the same workload, with seed 1 and BENCHMARK.json's
run_seconds on both sides. The parent runs from a `git archive` export of
--parent in a temporary directory, so it uses the parent's own perfbench
and BENCHMARK.json. Pair i (counted from 1) runs the parent first when i is
odd and the change first when i is even, so a drift of the host over the
session falls on both sides alike. After the pairs, TRACE_RUNS --trace 1
runs per side and workload, alternating sides, record every per-layer
metric BENCHMARK.json declares (spectrum.tensor_power_spectrum.calls and
useful_ratio among them), written as each metric's median and its min and
max over those runs, so a per-layer change can be told from run-to-run
noise. The file is rewritten after every run, so an interrupted script
leaves the pairs it finished.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

METRICS = ("run_cal", "peak_rss_mb", "setup_s")
SEED = 1
RUN_TIMEOUT_S = 600  # perfbench/run.py ends its own run within 180 s
TRACE_RUNS = 3  # traced runs per side and workload


def summarize(pairs: list) -> dict:
    """Per metric: each side's median and quartiles, and how many pairs the
    change measured lower than the parent did.

    Quartiles are statistics.quantiles(method="inclusive"); values are
    rounded to 4 decimals, as the pairs are.
    """
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        row = {}
        for side, xs in (("parent", parent), ("change", change)):
            quartiles = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
            row[f"{side}_median"] = round(statistics.median(xs), 4)
            row[f"{side}_quartiles"] = [round(quartiles[0], 4), round(quartiles[2], 4)]
        row["change_lower_pairs"] = sum(c < p for p, c in zip(parent, change))
        row["pairs"] = len(pairs)
        out[name] = row
    return out


def run_once(root: str, workload: str, seconds: float, trace: int = 0):
    """One perfbench/run.py run in `root`; returns (metadata, result)."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["metadata"], json.loads(lines[-1])


def pair_row(meta: dict, result: dict) -> dict:
    row = {name: round(result["metrics"][name]["value"], 4) for name in METRICS}
    digest = meta["digest"]
    row["failed"] = result["failed"]
    row["digest"] = digest[:8] if isinstance(digest, str) else digest
    return row


def traced_row(result: dict) -> dict:
    """Every per-layer metric of a --trace 1 run, rounded to 4 decimals."""
    return {name: round(m["value"], 4) for name, m in result["metrics"].items()}


def traced_summary(rows: list) -> dict:
    """Per per-layer metric of traced_row rows: the median, and the min and
    max, over the runs."""
    out = {}
    for name in rows[0]:
        xs = [row[name] for row in rows]
        out[name] = {"median": round(statistics.median(xs), 4), "min": min(xs), "max": max(xs)}
    return out


def host(meta: dict) -> str:
    """The host line of a run's metadata."""
    versions = meta["versions"]
    return (f"{meta['nproc']}-core {platform.system()} host, Python {versions['python']}, "
            f"numpy {versions['numpy']}, OPENBLAS_NUM_THREADS=1 (set by perfbench/run.py)")


def export_rev(rev: str, dest: str):
    """The committed files of `rev`, unpacked into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--change", required=True, help="one line on what the change does")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        print("bench_pairs: run from the repository root", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("bench_pairs: --pairs must be at least 1", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    path = os.path.join(root, f"BENCH_{args.label}.json")
    doc = {
        "label": args.label,
        "change": args.change,
        "host": None,
        "command": f"python3 perfbench/run.py --workload <w> --seed {SEED} --seconds {seconds:g} --trace 0",
        "order": "pair i runs the parent first when i is odd, the change first when i is even",
        "parent_rev": subprocess.run(["git", "rev-parse", args.parent], capture_output=True,
                                     text=True, check=True).stdout.strip(),
        "workloads": {},
    }

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    with tempfile.TemporaryDirectory(prefix="bench_parent_") as parent_root:
        export_rev(args.parent, parent_root)
        sides = {"parent": parent_root, "change": root}
        for workload in args.workload:
            entry = doc["workloads"][workload] = {"summary": {}, "pairs": []}
            for i in range(1, args.pairs + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {}
                for side in order:
                    meta, result = run_once(sides[side], workload, seconds)
                    pair[side] = pair_row(meta, result)
                    doc["host"] = host(meta)
                    doc.setdefault("src_entlab_lines", {})[side] = meta["src_entlab_lines"]
                entry["pairs"].append({side: pair[side] for side in ("parent", "change")})
                entry["summary"] = summarize(entry["pairs"])
                write()
                print(f"{workload} pair {i}: " + json.dumps(entry["pairs"][-1]), flush=True)
            traced = {"parent": [], "change": []}
            for i in range(1, TRACE_RUNS + 1):
                for side in ("parent", "change") if i % 2 else ("change", "parent"):
                    _, result = run_once(sides[side], workload, seconds, trace=1)
                    traced[side].append(traced_row(result))
                    doc.setdefault("traced", {})[f"{workload}_{side}"] = traced_summary(traced[side])
                    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
