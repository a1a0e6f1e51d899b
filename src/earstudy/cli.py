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
    """The in-process entry: argv (sys.argv[1:] when None) as a command line.

    The collector is off while it runs, and the objects alive at start-up
    (numpy, the modules) are frozen, unless the caller froze a heap of its
    own; a run makes few reference cycles.  On every way out the caller
    gets its heap and its collector setting back.
    """
    collecting = gc.isenabled()
    freezing = not gc.get_freeze_count()
    if freezing:
        gc.freeze()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if freezing:
            gc.unfreeze()
        if collecting:
            gc.enable()


def process_main() -> int:
    """The entry of an earstudy process (``python -m earstudy``, the
    ``earstudy`` script): main without its heap handed back.

    The collector is off for the whole process, and the heap stays frozen,
    so neither the run nor the interpreter's exit walks it.  A run makes
    few reference cycles, and the process ends with the run.
    """
    gc.freeze()
    gc.disable()
    return _main(None)


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
    sys.exit(process_main())
