"""Command-line entry point.

Subcommands: synth (build a fixture directory from a scenario file) and
run (the pipeline, identify -> attention -> eventstudy, printing the
regression tables).  Exit codes: 0 success, 1 configuration error, 2 data
error.  Logging goes to stderr at WARNING level: progress is not logged,
exclusions and errors are.
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from pathlib import Path
from typing import NoReturn

from .errors import ConfigError, DataError
from .pipeline import load_run_config, run_stages


class _Parser(argparse.ArgumentParser):
    """A usage error is a one-line configuration error, exit 1."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"configuration error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="earstudy",
        description="Attention measures from landmark streams and the "
                    "event-study regressions built on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"synth": "generate a synthetic fixture directory",
             "run": "run the pipeline and print the regression tables"}
    parsers = {command: sub.add_parser(command, help=help_text)
               for command, help_text in helps.items()}
    for p_command in parsers.values():
        p_command.add_argument("--config", required=True, help="path to the JSON config file")
        p_command.add_argument("--out", required=True, help="output directory")
    parsers["run"].add_argument("--jobs", type=int, default=1,
                                help="accepted and ignored, so that existing scripts "
                                     "passing it keep working; stages run serially")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Collections skip the objects alive at start-up (numpy, the modules);
    # unfreezing on the way out gives an in-process caller its heap back.
    gc.freeze()
    try:
        return _main(argv)
    finally:
        gc.unfreeze()


def _main(argv: list[str] | None) -> int:
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)

    try:
        if args.command == "synth":
            # Imported here, so that the stages never load the generator.
            from .synth import run_synth

            run_synth(Path(args.config), out_dir)
            return 0
        cfg = load_run_config(args.config)
        for table in run_stages(cfg, out_dir):
            print(table)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
