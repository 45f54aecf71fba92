"""The checkpoint manifest's wire format.

A manifest is what makes a bare ``resume`` continue the *same* study,
so its JSON must carry every run setting through a round trip, keep the
key set default runs always had, and read manifests written before a
setting existed with the default that run implicitly used.
"""

from __future__ import annotations

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.cli import _run_settings, build_parser
from repro.core.stages import registered_stage_names
from repro.mail.guard import GUARD_LIMIT_KEYS
from repro.runner import RunManifest, RunnerConfig
from repro.storage.faults import STORAGE_FAULT_PROFILES
from repro.web.faults import FAULT_PROFILES

seeds = st.integers(min_value=0, max_value=2**31)
counts = st.integers(min_value=0, max_value=10**6)


@st.composite
def run_configs(draw) -> RunnerConfig:
    storage_faults = draw(st.sampled_from(tuple(STORAGE_FAULT_PROFILES)))
    return RunnerConfig(
        seed=draw(seeds),
        scale=draw(st.floats(min_value=0.001, max_value=1.0)),
        faults=draw(st.sampled_from(tuple(FAULT_PROFILES))),
        fault_seed=draw(seeds),
        storage_faults=storage_faults,
        # The storage seed is recorded only alongside its profile.
        storage_fault_seed=draw(seeds) if storage_faults != "off" else 0,
        budget=draw(st.none() | st.just(0) | st.integers(min_value=1, max_value=10**9)),
        guard_limits=draw(st.none() | st.lists(
            st.tuples(st.sampled_from(GUARD_LIMIT_KEYS), st.integers(1, 10**6)),
            min_size=1, max_size=4,
        ).map(tuple)),
        stages=draw(st.none() | st.lists(
            st.sampled_from(registered_stage_names()), min_size=1, unique=True,
        ).map(tuple)),
        hostile=draw(st.just("") | seeds.map(str) | st.builds(
            "{}:{}".format, seeds, st.integers(min_value=1, max_value=9),
        )),
    )


manifests = st.builds(
    RunManifest,
    config=run_configs(),
    jobs=st.integers(min_value=1, max_value=64),
    total_messages=counts,
    completed=counts,
    status=st.sampled_from(
        ("running", "complete", "failed", "interrupted", "serving", "stopped")
    ),
    dead_letters=st.lists(st.fixed_dictionaries(
        {"index": counts, "attempts": st.integers(1, 5), "error": st.text(max_size=20)}
    ), max_size=3),
    stats=st.dictionaries(st.text(max_size=8), counts, max_size=4),
    drained=st.lists(counts, max_size=4),
    service=st.none() | st.dictionaries(st.text(max_size=8), counts, max_size=4),
)


@given(manifests)
def test_manifest_round_trips_through_json(manifest):
    assert RunManifest.from_dict(json.loads(json.dumps(manifest.as_dict()))) == manifest


def test_default_run_manifest_key_set():
    config = _run_settings(build_parser().parse_args(["run"]))
    assert set(RunManifest(config=config).as_dict()) == {
        "manifest_version", "seed", "scale", "jobs", "total_messages", "completed",
        "status", "dead_letters", "stats", "faults", "fault_seed",
    }


def test_pre_change_manifest_loads_with_old_defaults():
    # Written before stages, hostile and storage faults were recorded.
    legacy = {
        "manifest_version": 1, "seed": 9, "scale": 0.02, "jobs": 2,
        "total_messages": 12, "completed": 5, "status": "interrupted",
        "dead_letters": [], "stats": {"analyzed": 5}, "faults": "light",
        "fault_seed": 3, "budget": 500000, "guard_limits": [["max_parts", 64]],
        "drained": [4],
    }
    manifest = RunManifest.from_dict(legacy)
    assert manifest.config == RunnerConfig(
        seed=9, scale=0.02, faults="light", fault_seed=3, budget=500000,
        guard_limits=(("max_parts", 64),),
    )
    assert manifest.config.stages is None
    assert manifest.config.hostile == ""
    assert manifest.config.storage_faults == "off"
    assert manifest.as_dict() == legacy

    # Older still: no fault keys at all.
    for key in ("faults", "fault_seed", "budget", "guard_limits", "drained"):
        del legacy[key]
    assert RunManifest.from_dict(legacy).config == RunnerConfig(seed=9, scale=0.02)
