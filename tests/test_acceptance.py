"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines inline).  The end-to-end criteria build a 45-conference synthetic
study through the real CLI and read back the rendered tables.
"""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from earstudy import (
    AttentionConfig,
    EarSeries,
    Gallery,
    GalleryEntry,
    IdentityConfig,
    RegressionInput,
    batch_ear,
    integrate_attention,
    ols_univariate,
    two_sided_p_value,
    vote_counts,
)
from earstudy.attention import estimate_fps
from earstudy.cli import main
from earstudy.geometry import LEFT_EYE_INDICES, RIGHT_EYE_INDICES
from earstudy.synth import ReadingEpisode, ScenarioSpec, gen_landmark_stream

from conftest import write_run_config
from ear_cases import HAND_CASES
from oracles import (
    analytic_attention,
    brute_force_classify,
    classify_batch,
    frame_aspect_ratio,
    ols_normal_equations,
    t_two_sided_p_quadrature,
)
from test_geometry import face_with_eyes, frame_ears


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE criterion {number} ({name}): PASS")


# --- criterion 1 ------------------------------------------------------------


def test_c01_ear_oracle_suite():
    started = time.perf_counter()
    assert len(HAND_CASES) == 20
    expectations = [expected for _, expected in HAND_CASES]
    assert any(e == 2.0 / 3.0 for e in expectations)
    assert any(e == 0.0 for e in expectations)
    worked = HAND_CASES[0][0]
    twins = [face_with_eyes(eye, eye) for eye, _ in HAND_CASES]
    values, usable = frame_ears(twins)
    assert all(usable)
    for face, value, expected in zip(twins, values, expectations):
        # the frame-level average of two identical eyes is the eye's value
        assert abs(value - expected) <= 1e-12
        assert value == frame_aspect_ratio(face, LEFT_EYE_INDICES, RIGHT_EYE_INDICES)
    paired, _ = frame_ears([face_with_eyes(eye, worked) for eye, _ in HAND_CASES])
    for value, expected in zip(paired, expectations):
        assert abs(value - (expected + 2.0 / 3.0) / 2.0) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"EAR oracle suite took {elapsed:.3f}s"
    report(1, "EAR oracle suite")


# --- criterion 2 ------------------------------------------------------------


def test_c02_similarity_invariance():
    rng = np.random.default_rng(2024)
    originals, transformed = [], []
    for _ in range(1000):
        pts = rng.uniform(-50.0, 50.0, size=(6, 2))
        if np.hypot(*(pts[0] - pts[3])) < 1.0:
            pts[3] = pts[0] + np.array([5.0, 0.0])
        originals.append(face_with_eyes(pts.tolist(), pts.tolist()))

        angle = rng.uniform(-np.pi, np.pi)
        scale = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        shift = rng.uniform(-1000.0, 1000.0, size=2)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        moved = pts @ rot.T * scale + shift
        transformed.append(face_with_eyes(moved.tolist(), moved.tolist()))
    base, base_usable = frame_ears(originals)
    moved_values, moved_usable = frame_ears(transformed)
    assert all(base_usable) and all(moved_usable)
    for before, after in zip(base, moved_values):
        assert abs(after - before) <= 1e-9
    report(2, "similarity invariance")


# --- criterion 3 ------------------------------------------------------------


def test_c03_identity_brute_force_equivalence():
    rng = np.random.default_rng(31)
    labels = ["chair", "deputy", "reporter", "visitor"]
    for _ in range(500):
        m = int(rng.integers(1, 101))
        entries = [
            (labels[int(rng.integers(0, len(labels)))], rng.normal(size=128))
            for _ in range(m)
        ]
        query = rng.normal(size=128)
        epsilon = float(rng.uniform(0.0, 25.0))
        min_votes = int(rng.integers(1, 5))
        gallery = Gallery(tuple(GalleryEntry(l, e) for l, e in entries))
        config = IdentityConfig(epsilon=epsilon, min_votes=min_votes)

        assert classify_batch(query[None], gallery, config) == [
            brute_force_classify(query, entries, epsilon, min_votes)
        ]
        # One label per entry, so that the counts are the entries' own votes.
        voters = Gallery(tuple(GalleryEntry(f"e{k}", e) for k, (_, e) in enumerate(entries)))
        small = vote_counts(query[None], voters, epsilon)
        large = vote_counts(query[None], voters, epsilon * 1.7 + 0.1)
        assert np.all(large >= small)
    report(3, "identity brute-force equivalence")


# --- criterion 4 ------------------------------------------------------------


def recovery_scenario(fps: float, seed: int = 99) -> ScenarioSpec:
    return ScenarioSpec(
        conference_id=f"rec-{fps}",
        seed=seed,
        date=__import__("datetime").date(2020, 3, 1),
        fps=fps,
        conference_length_s=300.0,
        reading_episodes=(
            ReadingEpisode(40.0, 100.3, 0.12),
            ReadingEpisode(150.7, 200.0, 0.15),
            ReadingEpisode(240.0, 270.5, 0.05),
        ),
        baseline_ear=0.30,
        blink_rate_hz=0.0,
        gap_intervals=((110.0, 140.0),),
    )


def pipeline_attention(spec: ScenarioSpec, threshold: float) -> tuple[float, float]:
    _, batch, _ = gen_landmark_stream(spec)
    values, usable = batch_ear(batch.points)
    assert usable.all()
    series = EarSeries(spec.conference_id, batch.timestamps, values,
                       estimate_fps(batch.timestamps))
    return integrate_attention(series, AttentionConfig(threshold=threshold))


def test_c04_attention_recovery_and_riemann():
    started = time.perf_counter()
    threshold = 0.2
    for fps in (5.0, 15.0, 30.0):
        spec = recovery_scenario(fps)
        integral, reading = pipeline_attention(spec, threshold)
        _, _, truth = gen_landmark_stream(spec)
        expected_integral, expected_reading = analytic_attention(truth, threshold)
        n_episodes = len(spec.reading_episodes)
        step = 1.0 / fps
        assert abs(integral - expected_integral) <= n_episodes * step * threshold + 1e-9
        assert abs(reading - expected_reading) <= n_episodes * step + 1e-9

    for fps in (10.0, 15.0):
        lam_single, _ = pipeline_attention(recovery_scenario(fps), threshold)
        lam_double, _ = pipeline_attention(recovery_scenario(2 * fps), threshold)
        assert abs(lam_double - lam_single) < 0.01 * lam_single

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"attention recovery took {elapsed:.3f}s"
    report(4, "attention integral recovery")


# --- criterion 5 ------------------------------------------------------------


def matches(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol + tol * max(abs(a), abs(b))


def test_c05_ols_oracle_equivalence():
    fields = (
        "alpha", "beta", "se_alpha", "se_beta", "t_alpha", "t_beta",
        "p_alpha", "p_beta", "r2", "adj_r2", "resid_se", "f_stat",
    )
    rng = np.random.default_rng(55)
    for _ in range(10_000):
        n = int(rng.integers(3, 201))
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=n)
        y = (
            rng.uniform(-1, 1)
            + rng.uniform(-2, 2) * x
            + rng.normal(0.0, rng.uniform(0.1, 1.5), size=n)
        )
        result = ols_univariate(RegressionInput(y=y, x=x))
        expected = ols_normal_equations(x, y)
        for field_name in fields:
            assert matches(getattr(result, field_name), expected[field_name], 1e-10), (
                field_name,
                n,
            )
        if math.isfinite(result.f_stat):
            assert abs(result.f_stat - result.t_beta**2) <= 1e-9 * max(
                1.0, abs(result.f_stat)
            )

    exact = ols_univariate(
        RegressionInput(y=np.array([1.0, 2.0, 4.0]), x=np.array([1.0, 2.0, 3.0]))
    )
    assert abs(exact.beta - 1.5) <= 1e-12
    assert abs(exact.alpha + 2.0 / 3.0) <= 1e-12
    assert abs(exact.r2 - 27.0 / 28.0) <= 1e-12
    report(5, "OLS oracle equivalence")


# --- criterion 6 ------------------------------------------------------------


def test_c06_t_distribution_accuracy():
    t_grid = [0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.018, 3.0, 4.5, 6.0, 8.0, 10.0]
    for df in (1, 10, 42, 100):
        for t_abs in t_grid:
            for t_val in (t_abs, -t_abs):
                got = two_sided_p_value(t_val, df)
                expected = t_two_sided_p_quadrature(t_val, df)
                assert abs(got - expected) <= 1e-8, (df, t_val)
    # the tabulated 5% critical point at the reference sample size
    assert abs(two_sided_p_value(2.018, 42) - 0.05) < 1e-3
    report(6, "t-distribution accuracy")


# --- criterion 7 ------------------------------------------------------------


def test_c07_confidence_interval_coverage():
    rng = np.random.default_rng(77)
    n = 44
    true_a, true_b = 0.3, 1.7
    covered = 0
    trials = 10_000
    for _ in range(trials):
        x = rng.normal(size=n)
        y = true_a + true_b * x + rng.normal(0.0, 0.8, size=n)
        result = ols_univariate(RegressionInput(y=y, x=x))
        if abs(result.beta - true_b) <= 1.96 * result.se_beta:
            covered += 1
    rate = covered / trials
    assert 0.93 <= rate <= 0.97, f"coverage {rate:.4f}"
    report(7, "confidence-interval coverage")


# --- criteria 8-10: end-to-end planted study --------------------------------


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted_study")
    scenario_path = root / "study.json"
    scenario_path.write_text(json.dumps({"study": {"seed": 2024, "n_conferences": 45}}))
    assert main(["synth", "--config", str(scenario_path), "--out", str(root / "fixtures")]) == 0

    config_path = root / "runconfig.json"
    write_run_config(config_path, root / "fixtures")

    outputs = {}
    stdouts = {}
    durations = {}
    for name in ("a", "b"):
        out_dir = root / f"out_{name}"
        buffer = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
        durations[name] = time.perf_counter() - started
        assert code == 0
        outputs[name] = out_dir
        stdouts[name] = buffer.getvalue()
    return outputs, stdouts, durations


def table_model(out_dir: Path, dependent: str, covariate: str) -> dict:
    payload = json.loads((out_dir / "tables" / f"{dependent}.json").read_text())
    for model in payload["models"]:
        if model["covariate"] == covariate:
            return model
    raise AssertionError(f"covariate {covariate} missing from {dependent} table")


def test_c08_planted_effect_recovered(planted_run):
    outputs, stdouts, durations = planted_run
    assert durations["a"] < 60.0, f"run took {durations['a']:.1f}s"

    model = table_model(outputs["a"], "return_during", "delta_log_attention")
    assert model["n"] == 44
    assert abs(model["beta"] - 0.005) <= 3.0 * model["se_beta"], model
    assert model["stars"] != "", model

    text = stdouts["a"]
    assert "return_during" in text
    assert "const" in text
    for covariate in (
        "delta_log_attention",
        "delta_log_n_questions",
        "delta_log_qa_duration",
        "delta_log_chair_speech",
    ):
        assert covariate in text
    for row_label in ("Observations", "R2", "Adjusted R2", "Residual Std. Error",
                      "F Statistic"):
        assert row_label in text
    assert "Note: *p<0.1; **p<0.05; ***p<0.01" in text
    report(8, "end-to-end planted effect")


def test_c09_volatility_drop_sign(planted_run):
    outputs, _, _ = planted_run
    model = table_model(outputs["a"], "vol_change_x100", "delta_log_attention")
    assert model["beta"] < 0.0, model
    report(9, "volatility-drop sign")


def test_c10_run_determinism(planted_run):
    outputs, stdouts, _ = planted_run
    trees = {}
    for name, out_dir in outputs.items():
        trees[name] = {
            str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        }
    assert trees["a"] == trees["b"]
    assert stdouts["a"] == stdouts["b"]
    report(10, "run determinism")


# --- golden tables of the reference study -----------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _same_numbers(got, expected, where: str) -> None:
    """Equal structure and strings; numbers equal to 1e-12 relative."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and got.keys() == expected.keys(), where
        for key in expected:
            _same_numbers(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            _same_numbers(g, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0), (where, got, expected)
    else:
        assert type(got) is type(expected) and got == expected, (where, got, expected)


def _csv_cells(text: str) -> list:
    """A CSV text's rows as lists of cells, stamp lines left out; a cell
    that reads as a number becomes a float."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [list(map(cell, line.split(","))) for line in text.splitlines()
            if not line.startswith("#")]


def test_reference_tables_match_golden(planted_run):
    """The paper tables of the reference study are pinned, stamps aside.

    Text tables and stdout are compared byte for byte; the JSON tables, the
    windows and attention tables and the diagnostics to 1e-12 relative,
    since BLAS may sum the OLS dot products in another order.  Each EAR
    series is pinned by its row count and column sums.
    """
    outputs, stdouts, _ = planted_run
    out_dir = outputs["a"]
    for name in ("windows.csv", "attention.csv"):
        _same_numbers(_csv_cells((out_dir / name).read_text()),
                      _csv_cells((GOLDEN / name).read_text()), name)
    for path in sorted((GOLDEN / "diagnostics").glob("*.json")):
        payload = json.loads((out_dir / "diagnostics" / path.name).read_text())
        del payload["meta"]
        _same_numbers(payload, json.loads(path.read_text()), f"diagnostics/{path.name}")
    series = {}
    for path in sorted((out_dir / "ear").glob("*.csv")):
        header, *rows = _csv_cells(path.read_text())
        series[path.stem] = {"rows": len(rows),
                             **{c: math.fsum(col) for c, col in zip(header, zip(*rows))}}
    _same_numbers(series, json.loads((GOLDEN / "ear.json").read_text()), "ear")
    tables = out_dir / "tables"
    assert stdouts["a"] == (GOLDEN / "stdout.txt").read_text()
    for dependent in ("return_during", "return_after", "vol_change_x100"):
        lines = (tables / f"{dependent}.txt").read_text().splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith("#"))
        assert text == (GOLDEN / f"{dependent}.txt").read_text(), dependent
        payload = json.loads((tables / f"{dependent}.json").read_text())
        del payload["meta"]
        expected = json.loads((GOLDEN / f"{dependent}.json").read_text())
        _same_numbers(payload, expected, dependent)
