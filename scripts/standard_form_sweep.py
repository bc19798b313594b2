#!/usr/bin/env python3
"""Seeded random programs through the standard form, against the dense simulator.

Usage, from the repository root:

    python3 scripts/standard_form_sweep.py

Draws 1,000 programs with random_toy_ir(default_rng(29), max_dim=4,
rounds=3), each followed by a random pure input from the same generator.
Each program runs through standardize + run_standard_form and through
simulate_dense + group_by_message. The script exits 1 if any program's
message ensembles differ by a tv or a trace distance D of 1e-9 or more, if
its message bit count changes, or if either side raises. It prints the
worst tv and D, the failures and the wall time. Seed 29 draws programs
that neither the benchmark battery nor the test suite runs.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from entlab import PureBipartiteState  # noqa: E402
from entlab.locc import (  # noqa: E402
    compare_ensembles,
    group_by_message,
    random_toy_ir,
    run_standard_form,
    simulate_dense,
    standardize,
)
from entlab.sampling import random_pure  # noqa: E402

SEED = 29
COUNT = 1000
TOL = 1e-9


def sweep(count: int = COUNT, seed: int = SEED):
    """(worst tv, worst D, failures) over the first `count` programs."""
    gen = np.random.default_rng(seed)
    worst_tv = worst_d = 0.0
    failures = []
    for i in range(count):
        ir = random_toy_ir(gen, max_dim=4, rounds=3)
        amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        st = PureBipartiteState(ir.dim_a, ir.dim_b, amp)
        try:
            sf = standardize(ir, st)
            tv, d = compare_ensembles(
                run_standard_form(sf, st), group_by_message(simulate_dense(ir, st))
            )
        except Exception as exc:  # noqa: BLE001 - a raising program is a failure
            failures.append(f"program {i}: raised {type(exc).__name__}: {exc}")
            continue
        worst_tv, worst_d = max(worst_tv, tv), max(worst_d, d)
        if sf.message_bits != ir.message_bits():
            failures.append(f"program {i}: message bits {ir.message_bits()} became {sf.message_bits}")
        if not (tv < TOL and d < TOL):
            failures.append(f"program {i}: tv {tv} D {d}")
    return worst_tv, worst_d, failures


def main() -> int:
    start = time.perf_counter()
    worst_tv, worst_d, failures = sweep()
    wall = time.perf_counter() - start
    for line in failures:
        print(line)
    print(
        f"{COUNT} programs (seed {SEED}): worst tv {worst_tv:.3g}, worst D {worst_d:.3g}, "
        f"{len(failures)} failures, wall {wall:.2f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
