"""Benchmark inputs and output checks for the earstudy workloads.

Every input is a pure function of the benchmark seed.  Fixtures are built
by the program's own ``earstudy synth`` from a scenario file written here;
the program never sees the seed itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

# Planted-study check (acceptance criteria C08 and C09).
PLANTED_SLOPE = 0.005
PLANTED_SE_TOLERANCE = 3.0

RUN_CONFIG = {
    "registry": "fixture/registry.json",
    "gallery": "fixture/gallery.json",
    "target_label": "chair",
    "identity": {"epsilon": 0.5, "min_votes": 1, "no_embedding_policy": "drop"},
    "attention": {"threshold": 0.2, "gap_factor": 3.0, "floor_policy": "error"},
    "market": {"trading_close": "16:00"},
}

SIZES = {
    # planted: conferences and population R^2 of the planted effect;
    # many: conferences.  Runs stay at a few seconds, so that one
    # invocation can take the best of several.
    "full": {"planted": (12, 0.9), "many": 200},
    "tiny": {"planted": (8, 0.9), "many": 17},
}


@dataclass(frozen=True)
class Inputs:
    """Where a workload's fixture lives and what the program must output."""

    kind: str  # "planted" or "many"
    scenario: dict
    n_conferences: int
    study_seed: int | None = None


# ---------------------------------------------------------------------------
# Planted study
# ---------------------------------------------------------------------------


def _planted_draw_is_usable(study_seed: int, n_conferences: int, r2: float) -> bool:
    """Whether a planted draw has the reference size and a recoverable effect.

    The generator draws each Q&A length from 8-14 minutes, so the frame
    count of a small study varies by about 5% between seeds; a usable draw
    totals exactly the mean, 11 minutes per conference, so every seed gives
    the same number of frames.  A draw can also by chance leave the
    during-return slope unstarred or more than 3 SE from the planted value
    even for an exact pipeline, so the true regressor must clear C08 with
    margin.  Both tests use only the generator's scripts and price paths,
    never pipeline output, so they cannot hide a pipeline defect.
    """
    from earstudy import synth

    scenarios, _, truth = synth.planted_study_scenarios(
        study_seed, n_conferences, target_r2=r2
    )
    if sum(spec.conference_length_s for spec in scenarios) != 660.0 * n_conferences:
        return False
    xs, ys = [], []
    for spec in scenarios[1:]:
        bars, _ = synth.gen_price_series(spec)
        prices = {bar.timestamp: bar.price for bar in bars}
        timeline = spec.resolved_timeline()
        ys.append(math.log(prices[timeline.conference_end] / prices[timeline.qa_start]))
        xs.append(truth["per_conference"][spec.conference_id]["delta_log_attention"])
    x = np.array(xs) - np.mean(xs)
    y = np.array(ys) - np.mean(ys)
    beta = float(x @ y / (x @ x))
    resid = y - beta * x
    se = math.sqrt(float(resid @ resid) / (len(x) - 2) / float(x @ x))
    return beta / se >= 2.0 and abs(beta - PLANTED_SLOPE) <= 2.5 * se


def planted_inputs(seed: int, size: str) -> Inputs:
    """A planted study like the ROADMAP reference, with fewer conferences.

    Candidate study seeds are the benchmark seed, then seeds derived from
    it, and the first usable draw is used.
    """
    n_conferences, r2 = SIZES[size]["planted"]
    for k in range(1000):
        study_seed = seed if k == 0 else int(
            np.random.SeedSequence([seed, k]).generate_state(1)[0]
        )
        if _planted_draw_is_usable(study_seed, n_conferences, r2):
            break
    else:
        raise RuntimeError(f"no usable planted draw derived from seed {seed}")
    study = {"seed": study_seed, "n_conferences": n_conferences, "target_r2": r2}
    return Inputs("planted", {"study": study}, n_conferences, study_seed)


# ---------------------------------------------------------------------------
# Many short conferences
# ---------------------------------------------------------------------------

_TZ = timezone(timedelta(hours=-4))
_FRAME_S = 30.0
_QA_FRAMES = range(8, 25)  # 4-12 minute Q&As


def many_inputs(seed: int, size: str) -> Inputs:
    """Many short Q&As, one frame per 30 s, each starting at 09:45.

    The seed shuffles a fixed multiset of Q&A lengths, so every seed gives
    the same frame and price-bar counts, and draws the reporter interval,
    the reading episode, the question count and the Q&A drift.  No
    regressor is constant and every conference has a reading frame.
    """
    n = SIZES[size]["many"]
    rng = np.random.default_rng(seed)
    lengths = rng.permutation([_QA_FRAMES[i % len(_QA_FRAMES)] for i in range(n)])
    scenarios = []
    for i in range(n):
        length_s = _FRAME_S * int(lengths[i])
        reporter_end = float(rng.uniform(20.0, 40.0))  # covers exactly one frame
        episode_start = float(rng.uniform(60.0, 90.0))
        episode_end = episode_start + float(rng.uniform(35.0, 150.0))
        qa_start = datetime.combine(
            date(2001, 1, 1) + timedelta(days=i), datetime.min.time(), tzinfo=_TZ
        ) + timedelta(hours=9, minutes=45)
        scenarios.append({
            "conference_id": f"m{i + 1:04d}",
            "seed": int(rng.integers(2**31)),
            "date": qa_start.date().isoformat(),
            "fps": 1.0 / _FRAME_S,
            "conference_length_s": length_s,
            "reading_episodes": [
                {"start_s": episode_start, "end_s": episode_end, "ear_level": 0.15}
            ],
            "identity_script": [{"start_s": 0.0, "end_s": reporter_end, "label": "reporter"}],
            "n_questions": int(rng.integers(5, 41)),
            "price_spec": {
                "minute_vol": 0.001,
                "drift_during_qa": float(rng.normal(0.0, 0.0003)),
                "vol_after_factor": float(rng.uniform(0.5, 1.2)),
            },
            "timeline": {
                "qa_start": qa_start.isoformat(),
                "conference_end": (qa_start + timedelta(seconds=length_s)).isoformat(),
                "trading_close": qa_start.replace(hour=16, minute=0).isoformat(),
            },
        })
    gallery = {"labels": ["chair", "reporter"], "seed": int(rng.integers(2**31))}
    return Inputs("many", {"scenarios": scenarios, "gallery": gallery}, n)


def make_inputs(workload: str, seed: int, size: str) -> Inputs:
    if workload == "many_conferences":
        return many_inputs(seed, size)
    return planted_inputs(seed, size)


def fixture_stats(fixture: Path) -> dict:
    """Input sizes recorded with every result."""
    truth = json.loads((fixture / "ground_truth.json").read_text())["conferences"]
    return {
        "conferences": len(truth),
        "frames": sum(t["landmarks"]["n_frames"] for t in truth.values()),
        "landmark_bytes": sum(p.stat().st_size for p in (fixture / "landmarks").iterdir()),
        "price_bars": sum(t["prices"]["n_bars"] for t in truth.values()),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def tree_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        rel = path.relative_to(out_dir).as_posix().encode()
        digest.update(b"%d:%s%d:" % (len(rel), rel, len(data)))
        digest.update(data)
    return digest.hexdigest(), total


def _model(out_dir: Path, dependent: str, covariate: str) -> dict:
    payload = json.loads((out_dir / "tables" / f"{dependent}.json").read_text())
    return next(m for m in payload["models"] if m["covariate"] == covariate)


def check_outputs(inputs: Inputs, fixture: Path, out_dir: Path) -> list[str]:
    """Problems with one run's output tree; empty when it is correct."""
    problems: list[str] = []
    try:
        truth = json.loads((fixture / "ground_truth.json").read_text())["conferences"]
        identify = json.loads((out_dir / "diagnostics" / "identify.json").read_text())
        for cid, expected in truth.items():
            kept = identify["conferences"][cid]["kept"]
            if kept != expected["landmarks"]["n_target_frames"]:
                problems.append(f"{cid}: kept {kept} frames, "
                                f"truth {expected['landmarks']['n_target_frames']}")

        n_rows = inputs.n_conferences - 1
        if inputs.kind == "planted":
            ret = _model(out_dir, "return_during", "delta_log_attention")
            if ret["n"] != n_rows:
                problems.append(f"return_during n={ret['n']}, expected {n_rows}")
            if abs(ret["beta"] - PLANTED_SLOPE) > PLANTED_SE_TOLERANCE * ret["se_beta"]:
                problems.append(f"C08: slope {ret['beta']} (se {ret['se_beta']}) is more "
                                f"than 3 SE from {PLANTED_SLOPE}")
            if not ret["stars"]:
                problems.append(f"C08: slope {ret['beta']} is not significant")
            vol = _model(out_dir, "vol_change_x100", "delta_log_attention")
            if not vol["beta"] < 0.0:
                problems.append(f"C09: volatility slope {vol['beta']} is not negative")
        else:
            for stage in ("attention", "eventstudy"):
                diag = json.loads((out_dir / "diagnostics" / f"{stage}.json").read_text())
                if diag["exclusions"]:
                    problems.append(f"{stage} excluded {len(diag['exclusions'])} conferences")
            study = json.loads((out_dir / "diagnostics" / "eventstudy.json").read_text())
            if study["n_regression_rows"] != n_rows:
                problems.append(f"{study['n_regression_rows']} regression rows, "
                                f"expected {n_rows}")
            with open(out_dir / "windows.csv", encoding="utf-8") as fh:
                rows = csv.DictReader(line for line in fh if not line.startswith("#"))
                during = {row["return_during"] for row in rows}
            if len(during) < 2:
                problems.append("return_during is constant")
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
