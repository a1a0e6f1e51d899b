"""earstudy benchmark: one closed-loop client running ``earstudy run --jobs 1``.

    python3 perfbench/run.py --workload planted_study --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from
``src/``.  Set-up builds the workload's fixture with ``earstudy synth``.
The timed loop runs ``earstudy run`` into an empty ``--out`` as a
subprocess, one at a time, with stdout discarded, and checks every run's
output tree.  A fixed calibration workload runs on the same CPU just before
and just after every run and set-up.  On a shared machine the CPU speed
changes in spells that can outlast a whole invocation, so run and set-up
times are reported at a reference speed: measured seconds times
``REFERENCE_CALIBRATION_S`` over the calibration's measured time.  With
``--trace 1`` a final run happens in this process under the per-layer
tracer of ``tracing.py``.

The last stdout line is the result object; the line before it records the
inputs, the environment, every sample and the output-tree digest.  Scratch
files live under ``.perfbench_work/`` in the checkout and are removed on
exit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("planted_study", "many_conferences")
RUN_TIMEOUT_S = 120.0
IMPORT_REPEATS = 3
SETUP_REPEATS = 5
# The calibration workload reads, reduces and writes back a fixed set of
# landmark-like JSON frames.  The reference speed is about its median time on
# the shared 2-core x86_64 machine where the bounds in BENCHMARK.json were set.
CALIBRATION_FRAMES = 6000
REFERENCE_CALIBRATION_S = 0.29


class SetupError(RuntimeError):
    pass


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], cwd: Path, cpu: int) -> tuple[int, float, float]:
    """Run ``earstudy ARGS``; return exit code, wall seconds and peak RSS in MB.

    Wall time runs from spawn to exit.  stdout is discarded; stderr goes to
    ``earstudy.log`` in ``cwd`` for diagnosis.  ``cpu`` pins the process.
    """
    with open(os.devnull, "wb") as devnull, open(cwd / "earstudy.log", "wb") as log:
        started = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "earstudy", *args], cwd=cwd,
                                env=_program_env(), stdout=devnull, stderr=log)
        with contextlib.suppress(ProcessLookupError):  # it may have exited already
            os.sched_setaffinity(proc.pid, {cpu})
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@functools.cache
def _calibration_frames() -> tuple[str, ...]:
    import numpy as np

    rng = np.random.default_rng(0)
    return tuple(
        json.dumps({"t": i / 30, "face": i % 3,
                    "landmarks": rng.random((68, 2)).round(6).tolist(),
                    "embedding": rng.random(16).round(6).tolist()})
        for i in range(CALIBRATION_FRAMES)
    )


def calibrate(cpu: int, scratch: Path) -> float:
    """Seconds that the fixed calibration workload takes on ``cpu``.

    Like an earstudy run, it parses landmark JSON lines, measures eye
    distances with numpy, formats CSV rows and writes them to a file, over
    a few megabytes of data.
    """
    import numpy as np

    frames = _calibration_frames()
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        started = perf_counter()
        rows = []
        for line in frames:
            frame = json.loads(line)
            eye = np.asarray(frame["landmarks"])[36:42]
            ratio = (np.linalg.norm(eye[1] - eye[5]) + np.linalg.norm(eye[2] - eye[4])) / (
                2.0 * np.linalg.norm(eye[0] - eye[3]))
            rows.append(f"{frame['t']:.6f},{ratio:.6f},"
                        + ",".join(f"{x:.6f}" for x in frame["embedding"]))
        (scratch / "calibration.csv").write_text("\n".join(rows))
        return perf_counter() - started
    finally:
        os.sched_setaffinity(0, saved)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled by the calibrations just before and after it."""
    return seconds * REFERENCE_CALIBRATION_S * 2.0 / (before + after)


def import_seconds() -> float:
    """Median time of ``import earstudy.cli`` in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import earstudy.cli; "
             "print(time.perf_counter() - t)")
    samples = [
        float(subprocess.run([sys.executable, "-c", probe], env=_program_env(), check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(samples)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


class Workload:
    """One workload's fixture, its run command and the checks on each run."""

    def __init__(self, name: str, seed: int, size: str, work: Path) -> None:
        self.name = name
        self.work = work
        self.fixture = work / "fixture"
        self.out = work / "out"
        self.inputs = workloads.make_inputs(name, seed, size)
        self.run_args = ["run", "--config", "runconfig.json", "--out", "out", "--jobs", "1"]
        self.reference_digest: str | None = None
        (work / "scenario.json").write_text(json.dumps(self.inputs.scenario))
        (work / "runconfig.json").write_text(json.dumps(workloads.RUN_CONFIG))

    def set_up(self, cpu: int) -> float:
        """Build the fixture from scratch; return the seconds ``synth`` took."""
        shutil.rmtree(self.fixture, ignore_errors=True)
        code, seconds, _ = spawn(["synth", "--config", "scenario.json", "--out", "fixture"],
                                 self.work, cpu)
        if code != 0:
            raise SetupError(f"synth exited {code}: {self._log_tail()}")
        return seconds

    def check(self, code: int) -> tuple[int, list[str]]:
        """Bytes under ``--out`` and the problems with this run's outputs."""
        if code != 0:
            return 0, [f"exit code {code}: {self._log_tail()}"]
        problems = workloads.check_outputs(self.inputs, self.fixture, self.out)
        digest, size = workloads.tree_digest(self.out)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            problems.append(f"output digest {digest} differs from {self.reference_digest}")
        return size, problems

    def _log_tail(self) -> str:
        log = self.work / "earstudy.log"
        lines = log.read_text(errors="replace").strip().splitlines() if log.exists() else []
        return lines[-1] if lines else "(no stderr)"


def measure(bench: Workload, seconds: float, trace_on: bool) -> tuple[dict, dict]:
    """Set up, run the timed loop (and the traced run); return info and result.

    Each sample goes to the next CPU in turn, because on a shared host one
    CPU can be in a slow spell while the other is not, and each is bracketed
    by two calibrations on its CPU that give its time at the reference
    speed.  ``run_wall_s`` is the median of the runs' times at the
    reference speed, which leaves out the runs during which the speed
    changed.  The set-ups are spread over the loop; ``setup_s`` is the
    median of their times at the reference speed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    setups: list[float] = []
    setups_at_reference: list[float] = []
    walls: list[float] = []
    walls_at_reference: list[float] = []
    calibrations: list[float] = []
    laps: list[float] = []
    rss: list[float] = []
    sizes: list[int] = []
    failures: list[str] = []

    def set_up() -> None:
        cpu = cpus[len(setups) % len(cpus)]
        before = calibrate(cpu, bench.work)
        setup = bench.set_up(cpu)
        after = calibrate(cpu, bench.work)
        setups.append(setup)
        setups_at_reference.append(at_reference(setup, before, after))

    set_up()
    # Closed loop: start another run only if it should end within the budget.
    started = perf_counter()
    while not laps or perf_counter() - started + statistics.median(laps) <= seconds:
        if (len(setups) < SETUP_REPEATS - 1
                and perf_counter() - started >= seconds * len(setups) / (SETUP_REPEATS - 1)):
            set_up()
        lap = perf_counter()
        cpu = cpus[len(walls) % len(cpus)]
        before = calibrate(cpu, bench.work)
        shutil.rmtree(bench.out, ignore_errors=True)
        code, wall, peak_mb = spawn(bench.run_args, bench.work, cpu)
        after = calibrate(cpu, bench.work)
        laps.append(perf_counter() - lap)
        size, problems = bench.check(code)
        calibrations += [before, after]
        walls.append(wall)
        walls_at_reference.append(at_reference(wall, before, after))
        rss.append(peak_mb)
        sizes.append(size)
        failures += problems[:1]
    while len(setups) < SETUP_REPEATS:
        set_up()
    attempted, failed = len(walls), len(failures)
    run_wall = statistics.median(walls_at_reference)

    if trace_on:
        import tracing

        import_s = import_seconds()
        shutil.rmtree(bench.out, ignore_errors=True)
        argv = ["run", "--config", str(bench.work / "runconfig.json"),
                "--out", str(bench.out), "--jobs", "1"]
        code, traced_wall, tracer = tracing.traced_run(argv)
        problems = bench.check(code)[1]
        attempted += 1
        failed += bool(problems)
        failures += problems[:1]
        values = tracer.metrics()
        values["cli.import_s"] = import_s
        # The subprocess pays the import that the in-process run skips.  Both
        # walls are as measured, not at the reference speed.
        typical = statistics.median(walls)
        values["trace_overhead_frac"] = (traced_wall + import_s - typical) / typical
    else:
        values = {
            "run_wall_s": run_wall,
            "peak_rss_mb": statistics.median(rss),
            "out_bytes": statistics.median(sizes),
            "setup_s": statistics.median(setups_at_reference),
            "ok_frac": (attempted - failed) / attempted,
        }

    info = {
        "workload": bench.name,
        "study_seed": bench.inputs.study_seed,
        "inputs": workloads.fixture_stats(bench.fixture),
        "environment": environment(),
        "run_wall_s_samples": walls,
        "peak_rss_mb_samples": rss,
        "run_wall_s_at_reference_samples": walls_at_reference,
        "calibration_s_samples": calibrations,
        "setup_s_samples": setups,
        "setup_s_at_reference_samples": setups_at_reference,
        "output_digest": bench.reference_digest,
        "failures": failures,
    }
    units = metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return info, result


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="budget for the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="fixture size; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "earstudy" / "__init__.py").is_file():
        print(f"perfbench: no earstudy package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Workload(args.workload, args.seed, args.size, work)
        info, result = measure(bench, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    info.update(seed=args.seed, size=args.size, trace=args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
