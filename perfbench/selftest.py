"""Self-test of the benchmark at tiny fixture sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, with tracing off and on, it checks that the run's last
stdout line names exactly the metrics listed in BENCHMARK.json and that the
output check passes.  It also checks that the benchmark fails, without a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / HERE.name / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in workloads:
        for trace in (0, 1):
            proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                info = json.loads(proc.stdout.strip().splitlines()[-2])
                errors.append(f"{label}: output check failed: {info['failures']}")
            names = set(result["metrics"])
            if names != expected[trace]:
                errors.append(f"{label}: missing {sorted(expected[trace] - names)}, "
                              f"unexpected {sorted(names - expected[trace])}")
            print(f"{label}: ok", flush=True)

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", workloads[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("bare directory: expected a non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()

    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
