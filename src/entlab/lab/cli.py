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

# each command's help is the first line of its function's docstring (none
# under python -OO); the values stay the bare functions so that perfbench's
# tracer, which swaps a function wherever a module or dict binds it, sees
# every command call
_COMMANDS = {
    "spectrum": cmd_spectrum,
    "inefficiency": cmd_inefficiency,
    "communication": cmd_communication,
    "concentration": cmd_concentration,
    "selftest": run_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="scaling experiments for bipartite entanglement manipulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _COMMANDS.items():
        sp = sub.add_parser(name, help=(run.__doc__ or "").partition("\n")[0])
        sp.add_argument("--config", metavar="PATH", help="key = value config file")
        # selftest picks its own grid and writes into a temporary directory
        if name != "selftest":
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
    overrides = vars(_build_parser().parse_args(argv))
    command = overrides.pop("command")
    try:
        config = load_config(overrides.pop("config"), overrides)
        result = _COMMANDS[command](config)
        if command == "selftest":  # the number of problems found
            return 0 if result == 0 else 2
        for path in result:
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
