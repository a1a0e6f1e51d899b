"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload planted_study --seeds 1 2 3 4 5

Runs the benchmark once per seed, as BENCHMARK.json configures it, and
prints for each end-to-end metric its median and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    for metric in spec["end_to_end"]:
        samples = values[metric["name"]]
        median = statistics.median(samples)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        print(f"{metric['name']:>12}  median {median:.6g}  spread {(q3 - q1) / median:.4f}  "
              f"bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
