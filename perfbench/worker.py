"""One fresh process: set up, run one workload's timed body, gate it.

Started by run.py with PYTHONPATH pointing at the checkout's `src`. It
writes one JSON result file and nothing on stdout. `--t0` is the parent's
CLOCK_MONOTONIC reading just before this process was started, so setup_s
covers interpreter start, imports and loading the config.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import entlab.lab.cli as cli
    from entlab.lab import load_config

    config = load_config(args.config)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(_measure(cli, config, args))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _measure(cli, config, args) -> dict:
    import numpy
    import scipy

    import workloads

    run = workloads.Run()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run.clock)
        tracer.install()

    if args.workload == "protocols":
        searches, battery = workloads.run_protocols(config, args.seed, run)
    else:
        workloads.run_pipeline(cli, args.config, run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # before the gate: its layer calls are not the workload's
        layers = tracer.metrics()
        tracer.write_spans(args.spans)

    # correctness gate, outside the timed window
    if args.workload == "protocols":
        digest = workloads.gate_protocols(searches, battery, run)
    else:
        digest = workloads.gate_pipeline(args.workload, config, run)
    out = {
        "run_s": run.run_s,
        "run_cal": run.run_cal,
        "cal_s": statistics.median(run.cal_s),
        "peak_rss_mb": peak_rss_mb,
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "errors": run.errors[:20],
        "digest": digest,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        out["layers"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main())
