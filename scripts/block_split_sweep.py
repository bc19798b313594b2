#!/usr/bin/env python3
"""Block dilution and its profile queries against the per-piece oracles.

Usage, from the repository root:

    python3 scripts/block_split_sweep.py

For p = (0.6, 0.4) and (0.9, 0.1) at n = 256, 2048 and 8192, p = (0.5,
0.3, 0.2) at n = 60 and 150, and p = (0.4, 0.3, 0.2, 0.1) at n = 40 and
80, each at error targets 0.02, 0.1 and 0.5, the script finds c* with
find_min_budget and builds the block dilution at budgets 0, c* - 2 to
c* + 2 and the clamp, as the symbolic family build_block_family returns.
Each build's runs and predicted error must equal
tests/oracles.block_dilution_by_pieces, and the certificate's profile
queries over its runs (at the certificate's projector, at 0 and past the
runs) must equal tests/oracles.profile_queries_by_pieces, float for float.
The builds and queries run on the spectrum tensor_power_spectrum returns,
which holds its exact boundaries through its mass cut; the oracles read
every multiplicity, from a whole build of the same spectrum. None of these
bases or n is in the test suite. The script exits 1 on any
inequality or raise, and prints the case count, the failures and the wall
time.
"""

import os
import sys
import time

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

import numpy as np  # noqa: E402

from entlab import tensor_power_spectrum  # noqa: E402
from entlab.lab.commands import find_min_budget  # noqa: E402
from entlab.locc import build_block_family  # noqa: E402
from entlab.locc.runner import _profile_queries  # noqa: E402
from entlab.spectrum import _build_spectrum  # noqa: E402
from oracles import (  # noqa: E402
    block_dilution_by_pieces,
    exact_bounds_and_counts,
    profile_queries_by_pieces,
)

CASES = (
    ((0.6, 0.4), (256, 2048, 8192)),
    ((0.9, 0.1), (256, 2048, 8192)),
    ((0.5, 0.3, 0.2), (60, 150)),
    ((0.4, 0.3, 0.2, 0.1), (40, 80)),
)
EPSILONS = (0.02, 0.1, 0.5)


def merged_runs(runs):
    """The oracle's pieces (count, log2 x, log2 target), merged where
    neighbouring log2 x are equal, as (counts, log2 x) columns."""
    merged = []
    for cnt, lx, _ in zip(*runs):
        if merged and merged[-1][1] == lx:
            merged[-1] = (merged[-1][0] + cnt, lx)
        else:
            merged.append((cnt, lx))
    return tuple(zip(*merged))


def check(spec, whole, counts, budget, eps):
    """The failures of one build of spec, as strings; the oracles read
    whole, the same spectrum holding every exact boundary, and its exact
    class counts."""
    family = build_block_family(spec, budget, eps_target=eps)
    view = spec.view
    d1 = view.sig_dim(1.0 - eps * eps / 8.0)[0]
    runs, _, error = block_dilution_by_pieces(
        counts, spec.log2_eigs, spec.log2_masses, d1, budget
    )
    where = f"p = {tuple(spec.base_probs.tolist())}, n = {spec.n}, eps = {eps}, c = {budget}"
    failures = []
    if family.x_runs != merged_runs(runs):
        failures.append(f"{where}: runs differ from the oracle's")
    if family.target_error != error:
        failures.append(f"{where}: error {family.target_error}, oracle {error}")
    cert_n1 = view.count_eigs_at_least(-spec.n * spec.stats.entropy)
    for n1 in (cert_n1, 0, sum(family.x_runs[0]) + 1):
        got = _profile_queries(family.x_runs, view, n1)
        want = profile_queries_by_pieces(family.x_runs, whole, n1)
        if got != want:
            failures.append(f"{where}, n1 = {n1}: profile queries {got}, oracle {want}")
    return failures


def sweep():
    """(builds checked, failures) over every case."""
    builds, failures = 0, []
    for p, ns in CASES:
        for n in ns:
            spec = tensor_power_spectrum(np.array(p), n)
            whole = _build_spectrum(np.array(p), n, whole=True)
            counts = exact_bounds_and_counts(whole)[1]
            for eps in EPSILONS:
                try:
                    c_star = find_min_budget(spec, n, eps)[0]
                    clamp = (spec.view.sig_dim(1.0 - eps * eps / 8.0)[0] - 1).bit_length()
                    budgets = {0, clamp, *(b for b in range(c_star - 2, c_star + 3) if b >= 0)}
                    for budget in sorted(budgets):
                        builds += 1
                        failures += check(spec, whole, counts, budget, eps)
                except Exception as exc:  # noqa: BLE001 - a raising case is a failure
                    failures.append(f"p = {p}, n = {n}, eps = {eps}: raised {type(exc).__name__}: {exc}")
    return builds, failures


def main() -> int:
    start = time.perf_counter()
    builds, failures = sweep()
    wall = time.perf_counter() - start
    for line in failures:
        print(line)
    print(f"{builds} block builds, {len(failures)} failures, wall {wall:.2f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
