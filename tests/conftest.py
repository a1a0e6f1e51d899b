import json
from dataclasses import replace
from pathlib import Path

import pytest

from earstudy.synth import build_fixture, planted_study_scenarios


def write_run_config(path: Path, fixture_dir: Path, **overrides) -> Path:
    config = {
        "registry": str(fixture_dir / "registry.json"),
        "gallery": str(fixture_dir / "gallery.json"),
        "target_label": "chair",
        "identity": {"epsilon": 0.5, "min_votes": 1, "no_embedding_policy": "drop"},
        "attention": {"threshold": 0.2, "gap_factor": 3.0, "floor_policy": "error"},
        "market": {"trading_close": "16:00"},
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=2))
    return path


@pytest.fixture(scope="session")
def small_fixture(tmp_path_factory):
    """Six-conference study plus one zero-attention and one all-reporter
    conference, to exercise exclusions without aborting the run."""
    root = tmp_path_factory.mktemp("small_fixture")
    scenarios, gallery_spec, truth = planted_study_scenarios(seed=301, n_conferences=8)
    # conference 3: chair never reads -> zero attention integral
    scenarios[2] = replace(scenarios[2], reading_episodes=())
    # conference 5: chair never on camera -> empty filtered stream
    from earstudy.synth import ScriptInterval

    scenarios[4] = replace(
        scenarios[4],
        reading_episodes=(),
        identity_script=(
            ScriptInterval(0.0, scenarios[4].conference_length_s, "reporter"),
        ),
    )
    build_fixture(scenarios, gallery_spec, root, truth)
    return root
