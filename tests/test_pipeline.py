import gc
import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from earstudy import ConfigError, DataError, InsufficientDataError, pipeline, schema
from earstudy.attention import EarSeries, estimate_fps, summarize_conference
from earstudy.cli import main
from earstudy.geometry import LEFT_EYE_INDICES, RIGHT_EYE_INDICES, read_landmark_batch
from earstudy.identity import load_gallery
from earstudy.output import config_digest, read_csv
from earstudy.pipeline import (
    ATTENTION_COLUMNS,
    load_registry,
    load_run_config,
    run_stages,
    stage_identify,
)
from earstudy.synth import build_fixture, planted_study_scenarios

from conftest import write_run_config
from oracles import (
    RejectedLine,
    attention_row,
    brute_force_classify,
    frame_aspect_ratio,
    read_csv_rows,
    read_ear_rows,
    read_landmark_columns,
)


def digest(cfg) -> str:
    return config_digest(cfg.digest_payload())


def attention_table_row(cells: list[str]) -> dict:
    """One attention.csv row: ids and dates as text, counts as int, blanks as None."""
    row = dict(zip(ATTENTION_COLUMNS, cells, strict=True))
    for key, value in row.items():
        if key in ("n_samples", "n_gaps"):
            row[key] = int(value)
        elif key not in ("conference_id", "date"):
            row[key] = float(value) if value else None
    return row


def read_attention_table(path: Path) -> list[dict]:
    return read_csv(path, ATTENTION_COLUMNS, attention_table_row, "attention")


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def out_files(out: Path) -> list[str]:
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


_HASH = re.compile(rb'(config_hash["=:\s]+)[0-9a-f]{12}')


def masked_tree(root: Path) -> dict:
    """tree_bytes without run_config.json, each config_hash value masked."""
    return {name: _HASH.sub(rb"\1<hash>", data) for name, data in tree_bytes(root).items()
            if name != "run_config.json"}


def scalar_identify(cfg, record) -> tuple[tuple[list, list], dict]:
    """The EAR series (timestamps, values) and the routing tally as the
    oracles give them.

    The stdlib-json reader, the brute-force vote and the math.hypot EAR
    stand in for the library's reader, classifier and EAR.
    """
    columns = read_landmark_columns(record.landmarks)
    gallery = json.loads(cfg.gallery.read_text())["entries"]
    entries = [(e["label"], e["embedding"]) for e in gallery]
    ident = cfg.identity
    tally = dict.fromkeys(("kept", "rejected", "unknown", "no_embedding", "written"), 0)
    samples = []
    for timestamp, points, embedding in zip(
        columns["timestamp_s"], columns["points"], columns["embedding"]
    ):
        if embedding is None:
            tally["no_embedding"] += 1
            keep = ident.no_embedding_policy == "assume_target"
        else:
            label = brute_force_classify(embedding, entries, ident.epsilon, ident.min_votes)
            outcome = ("unknown" if label is None
                       else "kept" if label == cfg.target_label else "rejected")
            tally[outcome] += 1
            keep = outcome == "kept"
        if keep:
            tally["written"] += 1
            try:
                ear = frame_aspect_ratio(points, LEFT_EYE_INDICES, RIGHT_EYE_INDICES)
                samples.append((timestamp, ear))
            except ZeroDivisionError:
                pass
    tally["total"] = len(columns["timestamp_s"])
    return ([t for t, _ in samples], [ear for _, ear in samples]), tally


@pytest.fixture(scope="module")
def completed_run(small_fixture, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run_out")
    config_path = out_dir / "config.json"
    write_run_config(config_path, small_fixture)
    cfg = load_run_config(config_path)
    run_stages(cfg, out_dir / "out")
    return small_fixture, cfg, out_dir / "out"


def test_stage_outputs_exist(completed_run):
    _, _, out = completed_run
    assert (out / "run_config.json").exists()
    assert (out / "attention.csv").exists()
    assert (out / "windows.csv").exists()
    for name in ("return_during", "return_after", "vol_change_x100"):
        for ext in ("txt", "csv", "json"):
            assert (out / "tables" / f"{name}.{ext}").exists()
    assert (out / "diagnostics" / "identify.json").exists()
    assert len(list((out / "ear").glob("*.csv"))) == 8
    assert not (out / "filtered").exists()
    assert not (out / "diagnostics" / "ear.json").exists()


def test_attention_table_order_and_blank_first_delta(completed_run):
    fixture, _, out = completed_run
    rows = read_attention_table(out / "attention.csv")
    # excluded: conf-003 (zero attention) and conf-005 (empty stream)
    ids = [r["conference_id"] for r in rows]
    assert ids == sorted(ids)
    assert "conf-003" not in ids
    assert "conf-005" not in ids
    assert rows[0]["delta_log_attention"] is None
    assert all(r["delta_log_attention"] is not None for r in rows[1:])
    diag = json.loads((out / "diagnostics" / "attention.json").read_text())
    reasons = {e["conference_id"]: e["reason"] for e in diag["exclusions"]}
    assert set(reasons) == {"conf-003", "conf-005"}


def test_exclusions_recorded_but_run_continues(completed_run):
    _, _, out = completed_run
    diag = json.loads((out / "diagnostics" / "eventstudy.json").read_text())
    assert diag["n_regression_rows"] == 5  # 6 survivors, first has no delta
    table = json.loads((out / "tables" / "return_during.json").read_text())
    assert all(m["n"] == 5 for m in table["models"])


def test_identify_diagnostics_counts(completed_run):
    fixture, _, out = completed_run
    diag = json.loads((out / "diagnostics" / "identify.json").read_text())
    per_conf = diag["conferences"]
    assert per_conf["conf-005"]["kept"] == 0
    assert per_conf["conf-005"]["warning"] == "no frames classified as target"
    assert per_conf["conf-001"]["kept"] > 0
    assert per_conf["conf-001"]["rejected"] > 0  # reporter interludes
    total = per_conf["conf-001"]["total"]
    parts = per_conf["conf-001"]
    assert parts["kept"] + parts["rejected"] + parts["unknown"] + parts["no_embedding"] == total


def test_rerun_is_byte_identical(completed_run, tmp_path):
    fixture, cfg, out = completed_run
    second = tmp_path / "out2"
    run_stages(cfg, second)
    assert tree_bytes(second) == tree_bytes(out)


def test_run_hashes_each_input_once(completed_run, tmp_path, monkeypatch):
    _, cfg, _ = completed_run
    hashed = []
    file_sha256 = pipeline._file_sha256
    monkeypatch.setattr(pipeline, "_file_sha256",
                        lambda path, what: hashed.append(path) or file_sha256(path, what))
    run_stages(cfg, tmp_path / "out")
    assert sorted(hashed) == sorted([cfg.registry, cfg.gallery])


def test_attention_table_matches_row_oracle(completed_run):
    """Each attention.csv row agrees with the oracle's loop over the written
    ear/<id>.csv, and is exactly the package's summary of that file."""
    _, cfg, out = completed_run
    table = {row["conference_id"]: row for row in read_attention_table(out / "attention.csv")}
    threshold, gap_factor = cfg.attention.threshold, cfg.attention.gap_factor
    fields = ("attention_integral", "log_attention", "reading_time_s", "end_s", "observed_s")
    checked = []
    for path in sorted((out / "ear").glob("*.csv")):
        timestamps, values = read_ear_rows(path)
        expected = attention_row(timestamps, values, threshold, gap_factor)
        row = table.get(path.stem)
        if row is None:  # excluded: too few samples, or no log of a zero integral
            assert expected is None or expected["log_attention"] is None, path.stem
            continue
        assert (row["n_samples"], row["n_gaps"]) == (expected["n_samples"], expected["n_gaps"])
        for field in fields:
            assert row[field] == pytest.approx(expected[field], rel=1e-12, abs=0), field
        summary = summarize_conference(
            EarSeries(path.stem, np.array(timestamps), np.array(values),
                      estimate_fps(timestamps)),
            cfg.attention,
        )
        assert (summary.n_samples, summary.n_gaps) == (row["n_samples"], row["n_gaps"])
        for field in fields:
            assert float.hex(getattr(summary, field)) == float.hex(row[field]), field
        checked.append(path.stem)
    assert sorted(checked) == sorted(table)
    assert len(checked) == 6


def test_windows_csv_has_expected_columns(completed_run):
    _, _, out = completed_run
    lines = (out / "windows.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    assert header[:4] == ["conference_id", "date", "return_during", "return_after"]
    assert len(lines) == 2 + 6  # meta + header + six surviving conferences


def test_different_config_refuses_overwrite(completed_run, tmp_path):
    fixture, cfg, out = completed_run
    config_path = tmp_path / "config.json"
    write_run_config(config_path, fixture,
                     identity={"epsilon": 0.4, "min_votes": 1,
                               "no_embedding_policy": "drop"})
    other = load_run_config(config_path)
    with pytest.raises(ConfigError, match="refusing to overwrite"):
        run_stages(other, out)


def test_eventstudy_aborts_below_three_usable(tmp_path):
    scenarios, gallery_spec, _ = planted_study_scenarios(seed=302, n_conferences=3)
    scenarios[1] = replace(scenarios[1], reading_episodes=())
    fixture = tmp_path / "fixture"
    build_fixture(scenarios, gallery_spec, fixture)
    config_path = tmp_path / "config.json"
    write_run_config(config_path, fixture)
    cfg = load_run_config(config_path)
    with pytest.raises(InsufficientDataError):
        run_stages(cfg, tmp_path / "out")
    assert out_files(tmp_path / "out") == ["run_config.json"]


@pytest.mark.parametrize("fault, code", [("malformed", 2), ("missing", 1)])
def test_failed_run_leaves_only_run_config(small_fixture, tmp_path, capsys, fault, code):
    """A landmark fault in the last conference fails the run after identify
    has been through every other one, and no stage file is left."""
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    path = fixture / "landmarks" / "conf-008.jsonl"
    if fault == "malformed":
        lines = path.read_text().splitlines()
        lines[2] = "{bad"
        path.write_text("".join(f"{line}\n" for line in lines))
    else:
        path.unlink()
    config_path = write_run_config(fixture / "config.json", fixture)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == code
    error = "data error: " if code == 2 else "configuration error: "
    assert capsys.readouterr().err.startswith(error)
    assert out_files(out) == ["run_config.json"]


@settings(max_examples=4, deadline=None)
@given(order=st.permutations(range(8)))
def test_registry_order_leaves_the_tree_unchanged(completed_run, tmp_path_factory, order):
    """Shuffling the registry's entries changes only its sha256, so every
    file but run_config.json is the same once config_hash is masked."""
    fixture, _, out = completed_run
    work = tmp_path_factory.mktemp("shuffled")
    copy = shutil.copytree(fixture, work / "fixture")
    raw = json.loads((copy / "registry.json").read_text())
    raw["conferences"] = [raw["conferences"][i] for i in order]
    (copy / "registry.json").write_text(json.dumps(raw))
    run_stages(load_run_config(write_run_config(work / "config.json", copy)), work / "out")
    assert masked_tree(work / "out") == masked_tree(out)


@pytest.mark.parametrize("conference_id", ["conf-001", "conf-006"])
def test_bad_price_file_leaves_other_window_rows_unchanged(
    completed_run, tmp_path, conference_id
):
    """A conference excluded for a price of -1 loses its windows.csv row,
    and every other line stays as it was."""
    fixture, _, out = completed_run
    copy = shutil.copytree(fixture, tmp_path / "fixture")
    path = copy / "prices" / f"{conference_id}.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].split(",")[0] + ",-1\n"
    path.write_text("".join(lines))
    run_stages(load_run_config(write_run_config(tmp_path / "config.json", copy)),
               tmp_path / "out")
    diag = json.loads((tmp_path / "out" / "diagnostics" / "eventstudy.json").read_text())
    assert [e["conference_id"] for e in diag["exclusions"]] == [conference_id]
    before = (out / "windows.csv").read_text().splitlines()
    after = (tmp_path / "out" / "windows.csv").read_text().splitlines()
    assert after == [line for line in before if not line.startswith(f"{conference_id},")]
    assert len(after) == len(before) - 1


def rescale_prices(fixture: Path, scale: float) -> float:
    """Multiply every price in fixture's price files by scale; returns the
    largest |log p| of the prices before and after."""
    largest = 0.0
    for path in sorted((fixture / "prices").glob("*.csv")):
        comment, header, *rows = path.read_text().splitlines()
        lines = [comment, header]
        for row in rows:
            stamp, price = row.split(",")
            scaled = float(price) * scale
            largest = max(largest, abs(math.log(float(price))), abs(math.log(scaled)))
            lines.append(f"{stamp},{scaled!r}")
        path.write_text("".join(f"{line}\n" for line in lines))
    return largest


@settings(max_examples=2, deadline=None)
@given(scale=st.floats(1e-3, 1e3))
@example(scale=7.3)
def test_price_scale_leaves_windows_and_tables_unchanged(completed_run, tmp_path_factory, scale):
    """Only log returns enter, so multiplying every price by a constant moves
    windows.csv and the regressions by rounding alone, and no other file.

    Each log price carries half an ulp of |log p|, plus that of the scaled
    price: about 1e-15.  A return is the difference of two log prices, and
    two runs are compared, so a return moves by at most 4 of these, and so
    does a root mean square of returns.  A regression whose n dependent
    values each move by at most d moves beta by at most d sqrt(n) / |x - mean
    x| and the residual standard error by at most d sqrt(n / (n - 2)); t, r2
    and p follow through their largest slopes in t.
    """
    fixture, _, out = completed_run
    work = tmp_path_factory.mktemp("scaled")
    copy = shutil.copytree(fixture, work / "fixture")
    log_price_error = 2.0**-53 * (rescale_prices(copy, scale) + 1.0)
    run_stages(load_run_config(write_run_config(work / "config.json", copy)), work / "out")

    before, after = tree_bytes(out), tree_bytes(work / "out")
    assert after.keys() == before.keys()
    moved = {name for name in before if before[name] != after[name]}
    assert moved <= {"windows.csv"} | {f"tables/{d}.{ext}" for d in pipeline.DEPENDENT_COLUMNS
                                       for ext in ("txt", "csv", "json")}

    return_error = 4 * log_price_error
    window_error = {"return_during": return_error, "return_after": return_error,
                    "vol_before": return_error, "vol_after": return_error,
                    "vol_change": 2 * return_error}
    (header, old_rows), (new_header, new_rows) = (
        read_csv_rows(root / "windows.csv") for root in (out, work / "out"))
    assert new_header == header
    for old_row, new_row in zip(old_rows, new_rows, strict=True):
        for column, old_cell, new_cell in zip(header, old_row, new_row, strict=True):
            if column in window_error:
                assert abs(float(new_cell) - float(old_cell)) <= window_error[column]
            else:
                assert new_cell == old_cell

    dependent_error = {"return_during": return_error, "return_after": return_error,
                       "vol_change_x100": 100 * window_error["vol_change"]}
    for dependent, error in dependent_error.items():
        old_models, new_models = (
            json.loads((root / "tables" / f"{dependent}.json").read_text())["models"]
            for root in (out, work / "out"))
        for old, new in zip(old_models, new_models, strict=True):
            df = old["n"] - 2
            x_spread = old["resid_se"] / old["se_beta"]  # |x - mean x|
            beta_error = error * math.sqrt(old["n"]) / x_spread
            se_error = beta_error / math.sqrt(df)
            t_error = ((beta_error + abs(old["t_beta"]) * se_error)
                       / (old["se_beta"] - se_error))
            assert abs(new["beta"] - old["beta"]) <= beta_error
            assert abs(new["se_beta"] - old["se_beta"]) <= se_error
            # r2 = t^2 / (t^2 + df) has slope at most 9 / (8 sqrt(3 df)); p has
            # slope at most twice the t density at 0, below 1 / sqrt(2 pi),
            # plus its own relative error of 1e-11.
            assert abs(new["r2"] - old["r2"]) <= 9 / (8 * math.sqrt(3 * df)) * t_error
            assert abs(new["p_beta"] - old["p_beta"]) <= (
                2 / math.sqrt(2 * math.pi) * t_error + 1e-11 * old["p_beta"])
            assert new["stars"] == old["stars"]


def replace_all(data: bytes, pairs) -> bytes:
    for old, new in pairs:
        data = data.replace(old, new)
    return data


def test_renamed_ids_change_only_ids_and_file_names(completed_run, tmp_path):
    """Conference ids renamed in the same order, in every fixture file and
    file name, change the tree's ids and file names, its config_hash and
    the registry's sha256, and nothing else."""
    fixture, _, out = completed_run
    old_ids = sorted(p.stem for p in (fixture / "landmarks").glob("*.jsonl"))
    renames = [(old.encode(), f"fomc-{chr(ord('a') + i)}".encode())
               for i, old in enumerate(old_ids)]
    for name, data in tree_bytes(fixture).items():
        path = tmp_path / "fixture" / replace_all(name.encode(), renames).decode()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(replace_all(data, renames))
    run_stages(load_run_config(write_run_config(tmp_path / "config.json", tmp_path / "fixture")),
               tmp_path / "out")

    renamed = masked_tree(tmp_path / "out")
    assert renamed.keys() != masked_tree(out).keys()
    back = [(new, old) for old, new in renames]
    assert {replace_all(name.encode(), back).decode(): replace_all(data, back)
            for name, data in renamed.items()} == masked_tree(out)
    configs = [json.loads((root / "run_config.json").read_text())["config"]
               for root in (out, tmp_path / "out")]
    for config in configs:
        del config["registry_sha256"]
    assert configs[0] == configs[1]


def test_registry_loader_orders_and_validates(small_fixture):
    records = load_registry(small_fixture / "registry.json")
    assert [r.conference_id for r in records] == [f"conf-{i:03d}" for i in range(1, 9)]
    assert all(r.qa_start < r.conference_end for r in records)
    assert all(r.landmarks.exists() for r in records)


def test_registry_rejects_duplicates(tmp_path, small_fixture):
    raw = json.loads((small_fixture / "registry.json").read_text())
    raw["conferences"].append(raw["conferences"][0])
    bad = tmp_path / "registry.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="duplicate"):
        load_registry(bad)


def test_cli_exit_codes(small_fixture, tmp_path):
    config_path = tmp_path / "config.json"
    write_run_config(config_path, small_fixture)
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 0

    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out2")]) == 1

    empty_registry = tmp_path / "empty_registry.json"
    empty_registry.write_text(json.dumps({"conferences": []}))
    bad_config = tmp_path / "bad_config.json"
    write_run_config(bad_config, small_fixture, registry=str(empty_registry))
    assert main(["run", "--config", str(bad_config),
                 "--out", str(tmp_path / "out3")]) == 2


def test_cli_main_freezes_the_heap_only_while_it_runs(small_fixture, tmp_path, monkeypatch):
    """An in-process caller gets its collector back on every way out of main."""
    frozen = []

    def spy(*args):
        frozen.append(gc.get_freeze_count())
        return run_stages(*args)

    monkeypatch.setattr("earstudy.cli.run_stages", spy)
    config_path = write_run_config(tmp_path / "config.json", small_fixture)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert frozen[0] > 0
    assert gc.get_freeze_count() == 0
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out2")]) == 1
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{config}", "--out", "{out}", "--bogus", "1"],
        ["run", "--config", "{config}", "--out", "{out}", "--epsilon", "0.4"],
        ["synth", "--config", "{scenario}", "--out", "{out}", "--seed", "6"],
        ["run", "--out", "{out}"],
        ["run", "--config", "{config}", "--out", "{out}", "--jobs", "abc"],
        ["synth", "--config", "{scenario}", "--out", "{out}", "--jobs", "1"],
        [],
        ["no-such-command"],
        ["identify", "--config", "{config}", "--out", "{out}"],
        ["attention", "--config", "{config}", "--out", "{out}"],
        ["eventstudy", "--config", "{config}", "--out", "{out}"],
    ],
    ids=["unknown-flag", "run-epsilon", "synth-seed", "no-config", "text-jobs",
         "synth-jobs", "no-command", "unknown-command", "identify-command", "attention-command",
         "eventstudy-command"],
)
def test_cli_usage_error_is_one_line_configuration_error(
    small_fixture, tmp_path, capsys, argv
):
    """Settings come from the config file only, and synth and run are the
    only commands: a flag that is not --config, --out or run's --jobs N, or
    a removed stage command, is refused like any other usage error, before
    anything is written."""
    config_path = write_run_config(tmp_path / "config.json", small_fixture)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"study": {"seed": 5, "n_conferences": 3}}))
    paths = {"config": config_path, "scenario": scenario_path, "out": tmp_path / "out"}
    with pytest.raises(SystemExit) as info:
        main([arg.format(**paths) for arg in argv])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_cli_help_exits_zero(capsys):
    for argv in (["-h"], ["run", "-h"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: earstudy")


def test_table_json_holds_meta_then_the_csv_rows(completed_run):
    _, cfg, out = completed_run
    text = (out / "tables" / "return_during.json").read_text()
    payload = json.loads(text)
    assert list(payload) == ["meta", "models"]
    assert payload["meta"]["config_hash"] == digest(cfg)
    assert text == json.dumps(payload, indent=2) + "\n"
    header, *rows = (out / "tables" / "return_during.csv").read_text().splitlines()[1:]
    beta = header.split(",").index("beta")
    assert [m["covariate"] for m in payload["models"]] == list(pipeline.COVARIATE_COLUMNS)
    # full precision
    assert [m["beta"] for m in payload["models"]] == [float(r.split(",")[beta]) for r in rows]


def test_cli_import_leaves_scipy_unloaded():
    # The package imports no scipy; the tests keep it as an oracle.
    probe = ("import sys, earstudy.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_run_never_imports_scipy(completed_run, tmp_path):
    """A whole run with scipy unimportable exits 0 and writes the same tree."""
    fixture, _, out = completed_run
    probe = ("import sys; sys.modules['scipy'] = None; "
             "from earstudy.cli import main; sys.exit(main())")
    config_path = write_run_config(tmp_path / "config.json", fixture)
    result = subprocess.run(
        [sys.executable, "-c", probe, "run", "--config", str(config_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert tree_bytes(tmp_path / "out") == tree_bytes(out)


def test_run_never_imports_numpy_ma(completed_run, tmp_path):
    """A whole run with numpy.ma unimportable exits 0 and writes the same
    tree: the frame-rate median does not go through np.median."""
    fixture, _, out = completed_run
    probe = ("import sys; sys.modules['numpy.ma'] = None; "
             "from earstudy.cli import main; sys.exit(main())")
    config_path = write_run_config(tmp_path / "config.json", fixture)
    result = subprocess.run(
        [sys.executable, "-c", probe, "run", "--config", str(config_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert tree_bytes(tmp_path / "out") == tree_bytes(out)


def test_run_never_imports_synth(completed_run, tmp_path):
    """A whole run with the fixture generator unimportable exits 0 and
    writes the same tree: only the synth subcommand loads it."""
    fixture, _, out = completed_run
    probe = ("import sys; sys.modules['earstudy.synth'] = None; "
             "from earstudy.cli import main; sys.exit(main())")
    config_path = write_run_config(tmp_path / "config.json", fixture)
    result = subprocess.run(
        [sys.executable, "-c", probe, "run", "--config", str(config_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert tree_bytes(tmp_path / "out") == tree_bytes(out)


def test_cli_synth_subprocess(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"study": {"seed": 5, "n_conferences": 3}}))
    result = subprocess.run(
        [sys.executable, "-m", "earstudy", "synth",
         "--config", str(scenario_path), "--out", str(tmp_path / "fx")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "fx" / "registry.json").exists()
    assert (tmp_path / "fx" / "ground_truth.json").exists()


def test_cli_data_error_is_one_stderr_line(small_fixture, tmp_path):
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    raw = json.loads((fixture / "registry.json").read_text())
    raw["conferences"][0]["date"] = "2020-13-45"
    (fixture / "registry.json").write_text(json.dumps(raw))
    config_path = write_run_config(fixture / "config.json", fixture)
    result = subprocess.run(
        [sys.executable, "-m", "earstudy", "run",
         "--config", str(config_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("data error: ")
    assert len(result.stderr.splitlines()) == 1, result.stderr


def test_run_does_not_depend_on_fixture_directory(small_fixture, tmp_path):
    trees = []
    for name in ("a", "b"):
        fixture = shutil.copytree(small_fixture, tmp_path / name / "fixture")
        cfg = load_run_config(write_run_config(tmp_path / name / "config.json", fixture))
        run_stages(cfg, tmp_path / name / "out")
        trees.append(tree_bytes(tmp_path / name / "out"))
    assert trees[0] == trees[1]


SCENARIO = {"conference_id": "c", "seed": 1, "date": "2020-01-15", "fps": 1.0,
            "conference_length_s": 60.0}
STUDY = {"seed": 1, "n_conferences": 3}


@pytest.mark.parametrize(
    "content",
    [
        b"{bad",
        b"[1,2]",
        json.dumps({"study": {"seed": 1, "n_conference": 3}}).encode(),
        json.dumps({"study": {"seed": "x"}}).encode(),
        json.dumps({"scenarios": 5}).encode(),
        json.dumps({**SCENARIO, "gallery": {"seed": "z"}}).encode(),
        json.dumps({"study": {"seed": 1, "n_conferences": 3}}).encode() + b"\xff",
        None,
        json.dumps({**SCENARIO, "seed": -1}).encode(),
        json.dumps({**SCENARIO, "gallery": {"seed": -1}}).encode(),
        json.dumps({**SCENARIO, "fps": float("nan")}).encode(),
        json.dumps({"study": {**STUDY, "target_r2": 0}}).encode(),
        json.dumps({"study": {**STUDY, "episode_ear": 0}}).encode(),
        json.dumps({"study": {**STUDY, "effect_slope": float("nan")}}).encode(),
        json.dumps({"study": {**STUDY, "seed": -1}}).encode(),
        json.dumps({"study": [1]}).encode(),
        json.dumps({**SCENARIO, "price_spec": {"base_price": float("nan")}}).encode(),
        json.dumps({**SCENARIO, "price_spec": {"minute_vol": float("nan")}}).encode(),
        json.dumps({**SCENARIO, "price_spec": {"vol_after_factor": float("inf")}}).encode(),
        json.dumps({**SCENARIO, "price_spec": {"drift_during_qa": float("-inf")}}).encode(),
        json.dumps({"study": {**STUDY, "effect_intercept": 1000}}).encode(),
        json.dumps({**SCENARIO, "price_spec": {"drift_during_qa": 1000.0}}).encode(),
        json.dumps({**SCENARIO, "price_spec": {"drift_during_qa": 1e308}}).encode(),
        json.dumps({"gallery": {"labels": ["chair"]},
                    "scenarios": [SCENARIO, {**SCENARIO, "conference_id": "d",
                                             "target_label": "reporter"}]}).encode(),
        json.dumps({**SCENARIO, "target_label": 5}).encode(),
        json.dumps({"gallery": {"labels": ["chair", 5]},
                    "scenarios": [{**SCENARIO, "identity_script": [
                        {"start_s": 0.0, "end_s": 10.0, "label": 5}]}]}).encode(),
        json.dumps({**SCENARIO, "seed": 1.7}).encode(),
        json.dumps({**SCENARIO, "n_questions": 3.9}).encode(),
        json.dumps({**SCENARIO, "fps": "2"}).encode(),
        json.dumps({**SCENARIO, "gallery": {"seed": 2.5}}).encode(),
        json.dumps({**SCENARIO, "fsp": 2.0}).encode(),
        json.dumps({**SCENARIO, "timeline": {"qa_start": "2020-01-16T14:30:00-04:00",
                                             "conference_end": "2020-01-16T14:31:00-04:00",
                                             "trading_close": "2020-01-16T16:00:00-04:00"}}
                   ).encode(),
        json.dumps({**SCENARIO, "conference_length_s": 7200.0}).encode(),
        json.dumps({**SCENARIO, "conference_length_s": 1e12}).encode(),
    ],
    ids=["invalid-json", "list", "unknown-study-key", "text-study-seed", "scalar-scenarios",
         "text-gallery-seed", "invalid-utf8", "missing-file", "negative-seed",
         "negative-gallery-seed", "nan-fps", "zero-target-r2", "zero-episode-ear",
         "nan-study-slope", "negative-study-seed", "list-study", "nan-base-price",
         "nan-minute-vol", "inf-vol-after-factor", "inf-drift", "overflowing-study-intercept",
         "overflowing-drift", "infinite-walk", "label-missing-from-gallery",
         "number-target-label", "number-script-label", "fractional-seed",
         "fractional-n-questions", "text-fps", "fractional-gallery-seed", "misspelled-key",
         "timeline-off-date", "default-timeline-past-close", "default-timeline-overflow"],
)
def test_bad_scenario_file_is_one_line_error(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "fx")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "fx").exists()


def test_synth_retry_after_scenario_error(tmp_path, capsys):
    """A study whose third walk overflows leaves --out free for the fixed study."""
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"study": {**STUDY, "effect_intercept": 1000}}))
    out = tmp_path / "fx"
    assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
    assert "conf-002" in capsys.readouterr().err
    assert not out.exists()
    path.write_text(json.dumps({"study": {**STUDY, "effect_intercept": 0}}))
    assert main(["synth", "--config", str(path), "--out", str(out)]) == 0


UNSAFE_IDS = ["../escaped", "../../escaped", "a/b", "a\\b", "a\0b", ".", "..", "", 7]


@pytest.mark.parametrize("conference_id", UNSAFE_IDS)
def test_synth_rejects_unsafe_conference_id(tmp_path, capsys, conference_id):
    scenario_path = tmp_path / "scenario.json"
    unsafe = {**SCENARIO, "conference_id": conference_id}
    scenario_path.write_text(json.dumps({"scenarios": [SCENARIO, unsafe]}))
    out = tmp_path / "a" / "b"
    assert main(["synth", "--config", str(scenario_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"configuration error: scenario file {scenario_path}: "
                          "scenarios[1].conference_id: must be ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]


@pytest.mark.parametrize("conference_id", UNSAFE_IDS)
def test_run_rejects_unsafe_registry_id(tmp_path, capsys, small_fixture, conference_id):
    raw = json.loads((small_fixture / "registry.json").read_text())
    entry = raw["conferences"][0]
    entry["conference_id"] = conference_id
    for key in ("landmarks", "transcript", "segments", "prices"):
        entry[key] = str(small_fixture / entry[key])
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    (work / "registry.json").write_text(json.dumps(raw))
    config_path = write_run_config(tmp_path / "config.json", small_fixture,
                                   registry=str(work / "registry.json"))
    assert main(["run", "--config", str(config_path), "--out", str(work / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("data error: registry ")
    assert "conference_id" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "config.json",
                                                           "registry.json"]


def test_every_output_file_embeds_provenance(completed_run):
    _, cfg, out = completed_run
    from earstudy.output import embedded_digest

    expected = digest(cfg)
    files = [p for p in out.rglob("*") if p.is_file()]
    assert files
    for path in files:
        assert embedded_digest(path) == expected, path


@pytest.mark.parametrize("value", [2, 2.0])
def test_whole_min_votes_loads(small_fixture, tmp_path, value):
    config_path = write_run_config(
        tmp_path / "config.json", small_fixture,
        identity={"epsilon": 0.5, "min_votes": value, "no_embedding_policy": "drop"},
    )
    assert load_run_config(config_path).identity.min_votes == 2


def test_ear_series_matches_scalar_oracle(completed_run):
    """Each ear/<id>.csv, read back by the stdlib csv module, is the
    oracle's series, value for value."""
    _, cfg, out = completed_run
    for record in load_registry(cfg.registry):
        got = read_ear_rows(out / "ear" / f"{record.conference_id}.csv")
        assert got == scalar_identify(cfg, record)[0], record.conference_id


@pytest.mark.parametrize("policy", ["drop", "assume_target"])
def test_identify_routing_matches_filter_speaker_frames(small_fixture, tmp_path, policy):
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    # Every fifth frame of three conferences loses its embedding.
    for number in (1, 2, 5):
        path = fixture / "landmarks" / f"conf-{number:03d}.jsonl"
        lines = path.read_text().splitlines()
        for k in range(1, len(lines), 5):
            record = json.loads(lines[k])
            del record["embedding"]
            lines[k] = json.dumps(record, separators=(",", ":"))
        path.write_text("".join(f"{line}\n" for line in lines))
    config_path = write_run_config(
        tmp_path / "config.json", fixture,
        identity={"epsilon": 0.5, "min_votes": 1, "no_embedding_policy": policy},
    )
    cfg = load_run_config(config_path)
    records = load_registry(cfg.registry)
    series, diag = stage_identify(cfg, records, load_gallery(cfg.gallery))
    for record in records:
        samples, expected = scalar_identify(cfg, record)
        got = diag["conferences"][record.conference_id]
        assert {key: got[key] for key in expected} == expected, record.conference_id
        timestamps, values = series[record.conference_id]
        assert (timestamps.tolist(), values.tolist()) == samples, record.conference_id
    assert sum(c["no_embedding"] for c in diag["conferences"].values()) > 0


def test_missing_transcript_becomes_exclusion(small_fixture, tmp_path):
    raw = json.loads((small_fixture / "registry.json").read_text())
    raw["conferences"][0]["transcript"] = "transcripts/nonexistent.txt"
    registry = tmp_path / "registry.json"
    # keep relative paths resolvable against the original fixture
    for conf in raw["conferences"]:
        for key in ("landmarks", "transcript", "segments", "prices"):
            conf[key] = str(small_fixture / conf[key])
    registry.write_text(json.dumps(raw))
    config_path = tmp_path / "config.json"
    write_run_config(config_path, small_fixture, registry=str(registry))
    cfg = load_run_config(config_path)
    run_stages(cfg, tmp_path / "out")
    diag = json.loads((tmp_path / "out" / "diagnostics" / "attention.json").read_text())
    excluded = {e["conference_id"] for e in diag["exclusions"]}
    assert "conf-001" in excluded


def run_cli(config_path: Path, out: Path) -> subprocess.CompletedProcess:
    """earstudy run in a child process, so stderr is what a user sees."""
    return subprocess.run(
        [sys.executable, "-m", "earstudy", "run", "--config", str(config_path),
         "--out", str(out)],
        capture_output=True, text=True,
    )


def test_data_error_after_identify_warning_is_one_stderr_line(small_fixture, tmp_path):
    """conf-005 keeps no frames; its warning must not precede conf-006's error."""
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    path = fixture / "landmarks" / "conf-006.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["points"][0] = None
    lines[2] = json.dumps(record)
    path.write_text("".join(f"{line}\n" for line in lines))
    result = run_cli(write_run_config(fixture / "config.json", fixture), tmp_path / "out")
    assert result.returncode == 2
    assert result.stderr.startswith(f"data error: {path}: line 3: ")
    assert len(result.stderr.splitlines()) == 1, result.stderr


@pytest.mark.parametrize("kind", ["landmarks", "transcripts", "segments", "prices"])
def test_invalid_utf8_is_a_data_error(small_fixture, tmp_path, kind):
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    path = next((fixture / kind).glob("conf-001.*"))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"".join(lines))
    result = run_cli(write_run_config(fixture / "config.json", fixture), tmp_path / "out")
    assert "Traceback" not in result.stderr
    if kind == "landmarks":
        message = f"{path}: line 3: not valid UTF-8"
        assert result.returncode == 2
        assert result.stderr == f"data error: {message}\n"
        with pytest.raises(DataError) as info:
            read_landmark_batch(path)
        assert str(info.value) == message
        with pytest.raises(RejectedLine) as oracle:
            read_landmark_columns(path)
        assert oracle.value.line_no == 3
        return
    assert result.returncode == 0, result.stderr
    stage = "eventstudy" if kind == "prices" else "attention"
    diag = json.loads((tmp_path / "out" / "diagnostics" / f"{stage}.json").read_text())
    name = path.relative_to(fixture).as_posix()
    assert {"conference_id": "conf-001", "reason": f"{name}: not valid UTF-8"} in (
        diag["exclusions"]
    )


def test_exclusion_reasons_do_not_depend_on_out(small_fixture, tmp_path):
    """A bad segments file is named relative to the registry's directory,
    wherever --out lies."""
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    segments = fixture / "segments" / "conf-006.csv"
    segments.write_bytes(segments.read_bytes() + b"1.5,abc,chair\n")
    cfg = load_run_config(write_run_config(tmp_path / "config.json", fixture))
    trees = []
    for out in (tmp_path / "a" / "out", tmp_path / "b" / "deeper" / "out"):
        run_stages(cfg, out)
        diag = json.loads((out / "diagnostics" / "attention.json").read_text())
        reasons = {e["conference_id"]: e["reason"] for e in diag["exclusions"]}
        assert reasons["conf-006"].startswith("segments/conf-006.csv: "), reasons
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("name, code", [("registry.json", 2), ("gallery.json", 2),
                                        ("config.json", 1)])
def test_non_utf8_json_file_is_one_line_error(small_fixture, tmp_path, capsys, name, code):
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    config_path = write_run_config(fixture / "config.json", fixture)
    path = fixture / name
    path.write_bytes(path.read_bytes() + b"\xff")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert f"{path}: invalid JSON" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, keys, value, code",
    [
        ("registry.json", ("conferences", 0, "date"), "2020-13-45", 2),
        ("registry.json", ("conferences",), 5, 2),
        ("gallery.json", ("entries",), 5, 2),
        ("gallery.json", ("entries", 0, "embedding", 0), "abc", 2),
        ("gallery.json", ("entries", 0, "embedding", 0), float("nan"), 2),
        ("config.json", ("identity", "epsilon"), "x", 1),
        ("config.json", ("market", "trading_close"), 5, 1),
        ("config.json", ("identity", "min_votes"), 2.7, 1),
        ("config.json", ("registry",), 5, 1),
        ("config.json", ("gallery",), None, 1),
        ("config.json", ("market",), 5, 1),
        ("config.json", ("identity", "epsilon"), float("nan"), 1),
        ("config.json", ("attention", "threshold"), float("inf"), 1),
        ("config.json", ("attention", "gap_factor"), float("nan"), 1),
        ("config.json", ("attention", "floor_value"), float("nan"), 1),
        ("config.json", ("identity", "epsilon"), True, 1),
        ("config.json", ("identity", "min_votes"), True, 1),
        ("config.json", ("attention", "threshold"), True, 1),
        ("config.json", ("attention", "floor_value"), False, 1),
        ("config.json", ("identity", "epsilon"), "0.5", 1),
        ("config.json", ("identity", "min_votes"), "1", 1),
        ("config.json", ("attention", "threshold"), "0.2", 1),
        ("config.json", ("attention", "gap_factor"), "3.0", 1),
        ("config.json", ("attention", "floor_value"), "1e-9", 1),
        ("config.json", ("identity", "epsilon"), 10**400, 1),
        ("registry.json", ("conferences", 0, "qa_start"), 5, 2),
        ("registry.json", ("conferences", 0, "conference_end"), 5, 2),
        ("registry.json", ("conferences", 0, "trading_close"), 5, 2),
        ("registry.json", ("conferences", 0, "landmarks"), 5, 2),
        ("registry.json", ("conferences", 0, "landmarks"), "landmarks/a\0b.jsonl", 2),
        ("registry.json", ("conferences", 0, "trading_close"), "2011-04-27T16:00:00", 2),
        ("registry.json", ("conferences", 0), [], 2),
        ("registry.json", ("conferences", 0, "date"), "2011-04-28", 2),
        ("gallery.json", ("entries", 0, "label"), 5, 2),
        ("gallery.json", ("entries", 0, "embedding", 0), True, 2),
        ("config.json", ("attention", "treshold"), 0.3, 1),
        ("config.json", ("stages",), ["identify", "attention", "eventstudy"], 1),
        ("config.json", ("eye_indices",), [list(range(36, 42)), list(range(42, 48))], 1),
        ("gallery.json", ("entries",), [], 2),
    ],
    ids=["registry-date", "registry-conferences", "gallery-entries", "gallery-text",
         "gallery-nan", "epsilon-text", "trading-close",
         "min-votes-fraction", "registry-path-number", "gallery-path-null",
         "market-number", "epsilon-nan", "threshold-inf", "gap-factor-nan", "floor-value-nan",
         "epsilon-true", "min-votes-true", "threshold-true", "floor-value-false",
         "epsilon-numeric-text", "min-votes-numeric-text",
         "threshold-numeric-text", "gap-factor-numeric-text", "floor-value-numeric-text",
         "epsilon-beyond-double", "registry-qa-start-number",
         "registry-conference-end-number", "registry-trading-close-number",
         "registry-landmarks-number", "registry-landmarks-nul",
         "registry-naive-trading-close", "registry-entry-list",
         "registry-date-off-qa-start", "gallery-label-number", "gallery-embedding-true",
         "config-misspelled-key", "removed-key-stages", "removed-key-eye-indices",
         "gallery-empty"],
)
def test_malformed_input_is_one_line_error(
    small_fixture, tmp_path, capsys, name, keys, value, code
):
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    config_path = write_run_config(fixture / "config.json", fixture)
    path = fixture / name
    raw = json.loads(path.read_text())
    target = raw
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(raw))

    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert err.startswith("configuration error: " if code == 1 else "data error: "), err
    # The line names the file and the key, and nothing is written.
    assert str(path) in err, err
    assert [key for key in keys if isinstance(key, str)][-1] in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("unreadable", [False, True], ids=["missing", "directory"])
def test_unreadable_landmark_file_is_one_line_configuration_error(
    small_fixture, tmp_path, unreadable
):
    """A landmark path that is missing or cannot be read is one message."""
    fixture = shutil.copytree(small_fixture, tmp_path / "fixture")
    path = fixture / "landmarks" / "conf-003.jsonl"
    path.unlink()
    if unreadable:
        path.mkdir()
    result = run_cli(write_run_config(fixture / "config.json", fixture), tmp_path / "out")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    reason = f"configuration error: cannot read landmark file {path}: "
    assert result.stderr.startswith(reason), result.stderr


@pytest.mark.parametrize("command", ["run", "synth"])
def test_out_that_is_a_file_is_one_line_configuration_error(small_fixture, tmp_path, command):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    config_path = write_run_config(tmp_path / "config.json", small_fixture)
    if command == "synth":
        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps({"study": {"seed": 1, "n_conferences": 4}}))
    result = subprocess.run(
        [sys.executable, "-m", "earstudy", command, "--config", str(config_path),
         "--out", str(out / "sub" if command == "synth" else out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("configuration error: cannot write "), result.stderr
    assert out.read_text() == "not a directory\n"


class _Paths(NamedTuple):
    paths: tuple[Path, ...]


def test_paths_resolve_as_path_resolve_does(tmp_path, monkeypatch):
    """Each distinct parent is resolved once, and the paths equal Path.resolve()."""
    real = tmp_path / "base" / "real"
    real.mkdir(parents=True)
    (real / "a.csv").write_text("")
    (real / "link.csv").symlink_to(real / "a.csv")  # a symlinked file
    (tmp_path / "base" / "linked").symlink_to(real)  # a symlinked directory
    (tmp_path / "base" / "loose.csv").symlink_to("real/../real/a.csv")
    texts = [
        "real/a.csv", "real/link.csv", "linked/a.csv", "linked/link.csv", "loose.csv",
        "real/../real/a.csv", "linked/../base/real/a.csv", "real/..", "linked/..", "real/",
        "real/missing.csv", "missing/dir/x.csv", "linked/missing.csv", ".", "",
        str(real / "a.csv"), "real/./a.csv", "real//a.csv",
    ]
    monkeypatch.chdir(tmp_path)
    for base in (tmp_path / "base", Path("base")):
        expected = tuple((base / text).resolve() for text in texts)
        assert len(set(expected)) < len(expected)  # some name one file
        got = schema.read(_Paths, {"paths": texts}, "test", DataError, base).paths
        assert got == expected
        assert all(type(path) is type(expected[0]) for path in got)


def test_registry_resolves_each_directory_once(small_fixture, monkeypatch):
    resolved = []
    resolve = Path.resolve
    monkeypatch.setattr(Path, "resolve", lambda self: resolved.append(self) or resolve(self))
    records = load_registry(small_fixture / "registry.json")
    # landmarks/, transcripts/, segments/ and prices/, for all 8 conferences
    assert len(records) == 8 and len(resolved) == 4
    monkeypatch.undo()
    raw = json.loads((small_fixture / "registry.json").read_text())["conferences"]
    expected = {c["conference_id"]: (small_fixture / c["prices"]).resolve() for c in raw}
    assert {r.conference_id: r.prices for r in records} == expected
