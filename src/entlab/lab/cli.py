"""Command-line entry point.

Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import EntlabError
from .commands import cmd_communication, cmd_concentration, cmd_inefficiency, cmd_spectrum
from .config import load_config
from .spotcheck import run_selftest

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "inefficiency": cmd_inefficiency,
    "communication": cmd_communication,
    "concentration": cmd_concentration,
}

_HELP = {
    "spectrum": "exact class spectra plus Gaussian residual table",
    "inefficiency": "dilution dimension window and growth fit",
    "communication": "minimal message budget per n with certificates",
    "concentration": "expected yield and deficit per n",
    "selftest": "run a reduced pipeline and re-derive sampled rows of its outputs",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="scaling experiments for bipartite entanglement manipulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "inefficiency", "communication", "concentration", "selftest"):
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", metavar="PATH", help="key = value config file")
        sp.add_argument(
            "--seed", type=int, metavar="U64", help="accepted for config compatibility; unused"
        )
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument(
            "--n-grid", dest="n_grid", metavar="LIST", help="comma-separated copy counts"
        )
        sp.add_argument("--p", metavar="LIST", help="comma-separated base probabilities")
        sp.add_argument("--epsilon", type=float, metavar="REAL", help="dilution error target")
        sp.add_argument(
            "--delta", type=float, metavar="REAL", help="significant-subspace mass threshold"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "n_grid": args.n_grid,
        "p": args.p,
        "epsilon": args.epsilon,
        "delta": args.delta,
    }
    try:
        config = load_config(args.config, overrides)
        if args.command == "selftest":
            failures = run_selftest(config)
            return 0 if failures == 0 else 2
        written = _COMMANDS[args.command](config)
        for path in written:
            print(path)
        return 0
    except EntlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
