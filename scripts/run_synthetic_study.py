#!/usr/bin/env python3
"""Build a planted-effect synthetic study and run the full pipeline on it.

Generates a suite of conferences whose Q&A drift carries a linear effect of
the attention regressor (with the walk's own volatility as noise, and a
co-planted post-conference volatility drop), then runs
identify -> attention -> eventstudy and prints the regression tables.

Usage:
    python scripts/run_synthetic_study.py --workdir /tmp/study \
        --seed 2024 --conferences 45 --slope 0.005
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from earstudy.cli import main as earstudy_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, help="directory for fixtures and outputs")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--conferences", type=int, default=45)
    parser.add_argument("--slope", type=float, default=0.005,
                        help="planted return effect per unit of the regressor")
    parser.add_argument("--target-r2", type=float, default=0.3)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    scenario_path = workdir / "study_scenario.json"
    scenario_path.write_text(
        json.dumps(
            {
                "study": {
                    "seed": args.seed,
                    "n_conferences": args.conferences,
                    "effect_slope": args.slope,
                    "target_r2": args.target_r2,
                }
            },
            indent=2,
        )
    )

    fixtures = workdir / "fixtures"
    code = earstudy_main(
        ["synth", "--config", str(scenario_path), "--out", str(fixtures)]
    )
    if code != 0:
        return code

    run_config = workdir / "run_config.json"
    run_config.write_text(
        json.dumps(
            {
                "registry": str(fixtures / "registry.json"),
                "gallery": str(fixtures / "gallery.json"),
                "target_label": "chair",
                "identity": {"epsilon": 0.5, "min_votes": 1,
                             "no_embedding_policy": "drop"},
                "attention": {"threshold": 0.2, "gap_factor": 3.0,
                              "floor_policy": "error"},
                "market": {"trading_close": "16:00"},
            },
            indent=2,
        )
    )

    code = earstudy_main(
        ["run", "--config", str(run_config), "--out", str(workdir / "out")]
    )
    if code != 0:
        return code

    table = json.loads((workdir / "out" / "tables" / "return_during.json").read_text())
    model = next(
        m for m in table["models"] if m["covariate"] == "delta_log_attention"
    )
    print(
        f"planted slope {args.slope:+.4f}; recovered "
        f"{model['beta']:+.4f} (se {model['se_beta']:.4f}, "
        f"t {model['t_beta']:.2f}, stars {model['stars'] or 'none'})"
    )
    print(f"outputs in {workdir / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
