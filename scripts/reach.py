#!/usr/bin/env python3
"""The largest n each CLI command reaches, per base, written as REACH.json.

Usage, from the repository root:

    python3 scripts/reach.py [--seconds 60] [--rss-mb 2048] [--out REACH.json]
        [--parent REV]

For each command (spectrum, inefficiency, communication, concentration)
and each base (d = 2, p = (0.75, 0.25); d = 3, (0.5, 0.3, 0.2); d = 4,
(0.4, 0.3, 0.2, 0.1)), the script runs `python -m entlab.lab.cli COMMAND
--p P --n-grid N` for n up the base's fixed doubling grid, one child
process at a time. A row stops at the first n that exits non-zero, whose
child runs past --seconds of wall time, or whose resident set passes
--rss-mb; the script kills such a child. The resident set is polled
read-only from /proc/<pid>/status, and each child's peak RSS is its
ru_maxrss from os.wait4 (RUSAGE_CHILDREN would be a maximum over every
child). Each row records the largest n that ran, with its wall time and
peak RSS, and what stopped the row: "exit 3" with the name of the cap its
error text names, another exit code, "time", "memory", or "grid end".

With --parent REV, the same sweep first runs on a `git archive` export of
REV, and the file holds both sides. The script prints one table per side
and exits 0 whatever the rows read: it measures reach and gates nothing.
Linux only (it reads /proc). Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

COMMANDS = ("spectrum", "inefficiency", "communication", "concentration")
# name -> (p, doubling grid of n)
BASES = {
    "d2": ((0.75, 0.25), tuple(2**k for k in range(6, 23))),
    "d3": ((0.5, 0.3, 0.2), tuple(25 * 2**k for k in range(10))),
    "d4": ((0.4, 0.3, 0.2, 0.1), tuple(25 * 2**k for k in range(7))),
}
POLL_S = 0.02
CAP_NAME = re.compile(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b")


def cap_name(text: str):
    """The first constant name (EXACT_MULT_MAX_N, CLASS_CAP_DEFAULT, ...) an
    error text names, or None."""
    found = CAP_NAME.search(text)
    return found.group(0) if found else None


def rss_mb(pid: int) -> float:
    """The current resident set of pid from /proc/<pid>/status, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_child(argv: list, env: dict, seconds: float, max_rss_mb: float) -> dict:
    """Run one child to its end, or kill it past its time or memory budget.

    Returns its exit code (None when killed), why it was killed, wall
    time, peak RSS from os.wait4 and the last line of its stderr.
    """
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killed = None
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > seconds:
                killed = "time"
            elif rss_mb(proc.pid) > max_rss_mb:
                killed = "memory"
            if killed:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        lines = err.read().decode(errors="replace").strip().splitlines()
    return {
        "code": None if killed else proc.returncode,
        "killed": killed,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "stderr": lines[-1] if lines else "",
    }


def reach_row(root: str, command: str, p: tuple, grid: tuple, seconds: float, max_rss_mb: float) -> dict:
    """Step n up grid for one command and base until a child stops the row."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    row = {"command": command, "p": list(p), "reached_n": None, "wall_s": None, "peak_rss_mb": None}
    for n in grid:
        with tempfile.TemporaryDirectory(prefix="reach_") as out:
            argv = [sys.executable, "-m", "entlab.lab.cli", command, "--p", ",".join(map(str, p)),
                    "--n-grid", str(n), "--out", out]
            res = run_child(argv, env, seconds, max_rss_mb)
        if res["code"] != 0:
            reason = res["killed"] or f"exit {res['code']}"
            row["stop"] = {"n": n, "reason": reason, "wall_s": res["wall_s"],
                           "peak_rss_mb": res["peak_rss_mb"]}
            if res["code"] is not None:
                row["stop"]["cap"] = cap_name(res["stderr"]) if res["code"] == 3 else None
                row["stop"]["message"] = res["stderr"]
            return row
        row.update(reached_n=n, wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"])
    row["stop"] = {"n": None, "reason": "grid end"}
    return row


def sweep(root: str, seconds: float, max_rss_mb: float) -> dict:
    """Every row of one source tree, keyed "<command> <base>"."""
    rows = {}
    for command in COMMANDS:
        for base, (p, grid) in BASES.items():
            rows[f"{command} {base}"] = reach_row(root, command, p, grid, seconds, max_rss_mb)
            print(f"{command} {base}: " + json.dumps(rows[f"{command} {base}"]), flush=True)
    return rows


def table(rows: dict) -> str:
    """One line per row: the largest n, its wall time and peak RSS, and what stopped it."""
    lines = []
    for key, row in rows.items():
        stop = row["stop"]
        why = stop["reason"] + (f" {stop['cap']}" if stop.get("cap") else "")
        if stop["n"] is not None:
            why += f" at n = {stop['n']}"
        reached = ("none" if row["reached_n"] is None
                   else f"{row['reached_n']} ({row['wall_s']} s, {row['peak_rss_mb']} MB)")
        lines.append(f"{key:<20} {reached:<32} {why}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seconds", type=float, default=60.0, help="wall-time budget per child")
    ap.add_argument("--rss-mb", type=float, default=2048.0, help="resident-set budget per child")
    ap.add_argument("--out", default="REACH.json")
    ap.add_argument("--parent", help="also sweep this git revision, first")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entlab", "lab", "cli.py")):
        print("reach: run from the repository root", file=sys.stderr)
        return 2
    doc = {
        "command": "python -m entlab.lab.cli <command> --p <p> --n-grid <n> --out <tmp>",
        "seconds": args.seconds,
        "rss_mb": args.rss_mb,
        "grids": {base: {"p": list(p), "n": list(grid)} for base, (p, grid) in BASES.items()},
        "host": f"{os.cpu_count()}-core {sys.platform} host, Python {sys.version.split()[0]}",
        "sides": {},
    }
    sides = []
    with tempfile.TemporaryDirectory(prefix="reach_parent_") as parent_root:
        if args.parent:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from bench_pairs import export_rev

            export_rev(args.parent, parent_root)
            rev = subprocess.run(["git", "rev-parse", args.parent], capture_output=True,
                                 text=True, check=True).stdout.strip()
            sides.append(("parent", parent_root, rev))
        sides.append(("change", root, "working tree"))
        for side, side_root, rev in sides:
            rows = sweep(side_root, args.seconds, args.rss_mb)
            doc["sides"][side] = {"rev": rev, "rows": rows}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    for side in doc["sides"]:
        print(f"\n{side}:\n{table(doc['sides'][side]['rows'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
