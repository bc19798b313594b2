#!/usr/bin/env python3
"""Run every experiment command on one config and print headline numbers.

Usage: python3 scripts/run_all.py [--config scripts/default.cfg] [--out DIR]
"""

import argparse
import csv
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from entlab.lab import (  # noqa: E402
    cmd_communication,
    cmd_concentration,
    cmd_inefficiency,
    cmd_spectrum,
    load_config,
)


def _rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "default.cfg"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    config = load_config(args.config, {"out": args.out})
    written = []
    for cmd in (cmd_spectrum, cmd_inefficiency, cmd_communication, cmd_concentration):
        written.extend(cmd(config))
    print("wrote:")
    for path in written:
        print(f"  {path}")

    _, rows = _rows(os.path.join(config.out, "communication.csv"))
    print("\nminimal message budget:")
    prev = None
    for n, c_star, asn, ratio in rows:
        growth = "" if prev is None else f"  c*({n})/c*({prev[0]}) = {int(c_star)/int(prev[1]):.3f}"
        print(f"  n={n:>5}  c*={c_star:>4}  alpha sqrt(n)={float(asn):7.2f}{growth}")
        prev = (n, c_star)

    _, rows = _rows(os.path.join(config.out, "concentration.csv"))
    print("\nconcentration deficit:")
    for n, ne, ey, deficit, per_rt in rows:
        print(f"  n={n:>5}  deficit={float(deficit):8.3f}  deficit/sqrt(n)={float(per_rt):.4f}")

    with open(os.path.join(config.out, "growth_summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    print(
        f"\nsubspace growth: fitted sqrt coefficient {summary['fitted_sqrt_coeff']:.4f}"
        f" (Gaussian prediction {summary['gaussian_quantile_coeff']:.4f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
