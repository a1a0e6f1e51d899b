"""Command-line entry point.

Subcommands: synth (build a fixture directory from a scenario file),
identify / attention / eventstudy (single pipeline stages), and run (all
configured stages).  Exit codes: 0 success, 1 configuration error, 2 data
error.  Logging goes to stderr at WARNING level: progress is not logged,
exclusions and errors are.
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from pathlib import Path

from .errors import ConfigError, DataError
from .pipeline import STAGES, load_run_config, run_stages


def _add_common(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored, so that existing scripts "
                             "passing it keep working; stages run serially")
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="override the scenario seed")


def _add_identity_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=None,
                        help="identity vote distance tolerance")
    parser.add_argument("--min-votes", type=int, default=None,
                        help="minimum vote count to accept a label")
    parser.add_argument("--target-label", default=None, help="speaker label to keep")
    parser.add_argument("--no-embedding-policy", choices=["drop", "assume_target"],
                        default=None, help="handling of frames without embeddings")


def _add_market_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trading-close", default=None, metavar="HH:MM",
                        help="trading close time (default 16:00)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earstudy",
        description="Attention measures from landmark streams and the "
                    "event-study regressions built on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic fixture directory")
    _add_common(p_synth, seed=True)

    for stage in STAGES:
        p_stage = sub.add_parser(stage, help=f"run the {stage} stage")
        _add_common(p_stage)
        if stage == "identify":
            _add_identity_flags(p_stage)
        if stage == "eventstudy":
            _add_market_flags(p_stage)

    p_run = sub.add_parser("run", help="run all configured stages")
    _add_common(p_run)
    _add_identity_flags(p_run)
    _add_market_flags(p_run)

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

            run_synth(Path(args.config), out_dir, seed_override=args.seed)
            return 0
        cfg = load_run_config(args.config, vars(args))
        stages = cfg.stages if args.command == "run" else (args.command,)
        for table in run_stages(cfg, out_dir, stages):
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
