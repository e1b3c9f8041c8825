"""Determinism and hash-conservation gates for the workload subsystem.

Four angles, mirroring the other determinism layers:

* key conservation — a workload-free cell content-hashes to the exact
  pre-workload payload (hand-rolled replica recipe), while attaching a
  declarative workload joins exactly its canonical form;
* config-only equivalence — a config-only cell (no declared workload) runs
  exactly the explicit built-in ``fork_join`` spec built from the same
  config task-graph fields: rows, stats and series bit-identical, for
  every such field and across models; the numbers the retired
  hand-written fork-join application produced stay pinned by
  ``tests/experiments/golden/``;
* time-varying arrivals — burst-driven runs repeat byte-identically;
* the workloads campaign axis — expansion order, size, key
  distinctness, byte-identical empty-axis expansion, and spec
  round-trips.
"""

import hashlib
import json

import pytest

from repro.app.workloads import fork_join_spec, load_workload
from repro.campaign.spec import (
    CampaignSpec,
    HASH_SCHEMA_VERSION,
    RunDescriptor,
)
from repro.experiments.runner import run_single
from repro.platform.config import PlatformConfig

from tests.integration.test_fault_v2_determinism import _v1_config_dict

_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)

_BURST = {
    "name": "burst-fan",
    "tasks": [
        {"id": 1, "service_us": 500,
         "arrival": {"period_us": 4_000, "shape": "burst",
                     "burst_ticks": 4, "idle_ticks": 4},
         "downstream": [{"task": 2, "fanout": 3}]},
        {"id": 2, "service_us": 9_000, "weight": 3, "downstream": [3]},
        {"id": 3, "service_us": 2_000, "join": True},
    ],
}


# -- key conservation --------------------------------------------------------


def test_workload_free_key_replicates_v1_recipe():
    """A cell without a workload hashes to the exact pre-workload
    payload — no ``workload`` entry, present-at-default or otherwise."""
    descriptor = RunDescriptor("ffw", 7, 3, _CONFIG)
    payload = {
        "schema": HASH_SCHEMA_VERSION,
        "model": "foraging_for_work",
        "seed": 7,
        "faults": 3,
        "metric": "joins",
        "config": _v1_config_dict(_CONFIG),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert descriptor.key() == hashlib.sha256(
        blob.encode("utf-8")
    ).hexdigest()


def test_workload_cell_key_replicates_canonical_recipe():
    """A workload cell joins exactly the spec's canonical form."""
    spec = fork_join_spec()
    descriptor = RunDescriptor("ffw", 7, 3, _CONFIG, workload=spec)
    payload = {
        "schema": HASH_SCHEMA_VERSION,
        "model": "foraging_for_work",
        "seed": 7,
        "faults": 3,
        "metric": "joins",
        "config": _v1_config_dict(_CONFIG),
        "workload": spec.canonical(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert descriptor.key() == hashlib.sha256(
        blob.encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("changes", [
    {"packet_flits": 8},
    {"multicast": True},
    {"per_task_series": True},
])
def test_spec_fields_mint_fresh_cell_keys(changes):
    base = RunDescriptor(
        "none", 7, 0, _CONFIG, workload=fork_join_spec()
    ).key()
    spec = load_workload(
        dict(fork_join_spec().to_dict(), **changes)
    )
    changed = RunDescriptor("none", 7, 0, _CONFIG, workload=spec).key()
    assert changed != base
    assert base != RunDescriptor("none", 7, 0, _CONFIG).key()


# -- config-only equivalence -------------------------------------------------


def _strip_workload(result):
    row = result.as_row()
    row.pop("workload", None)
    return row


#: ``(config overrides, fork_join_spec kwargs)`` per variant: each config
#: task-graph field next to the spec argument it must translate to.
_FORK_JOIN_VARIANTS = {
    "default": ({}, {}),
    "fork_width1": ({"fork_width": 1}, {"fork_width": 1}),
    "fork_width2": ({"fork_width": 2}, {"fork_width": 2}),
    "fork_width4": ({"fork_width": 4}, {"fork_width": 4}),
    "multicast": ({"multicast_fork": True}, {"multicast": True}),
    "multicast_width4": (
        {"multicast_fork": True, "fork_width": 4},
        {"multicast": True, "fork_width": 4},
    ),
    "flits8": ({"packet_flits": 8}, {"packet_flits": 8}),
    "deadline4000": (
        {"packet_deadline_us": 4_000}, {"deadline_us": 4_000},
    ),
    "period2500": (
        {"generation_period_us": 2_500}, {"generation_period_us": 2_500},
    ),
    "service_times": (
        {"source_service_us": 700, "branch_service_us": 9_000,
         "sink_service_us": 2_000},
        {"source_service_us": 700, "branch_service_us": 9_000,
         "sink_service_us": 2_000},
    ),
    "balanced": ({"initial_mapping": "balanced"}, {}),
    "clustered": ({"initial_mapping": "clustered"}, {}),
    # A short watchdog so the killed nodes recover (and get remapped)
    # inside the horizon.
    "fault_aware_remap": (
        {"recovery_remap": "fault-aware", "watchdog_recovery": True,
         "watchdog_timeout_us": 20_000},
        {},
    ),
}


@pytest.mark.parametrize("model", ["none", "ni", "ffw"])
@pytest.mark.parametrize("variant", sorted(_FORK_JOIN_VARIANTS))
def test_fork_join_spec_reproduces_legacy_run_bit_identically(
    variant, model
):
    """A config-only cell runs exactly the explicit ``fork_join_spec``
    built from the same task-graph fields; only the row's ``workload``
    name tells them apart."""
    overrides, spec_kwargs = _FORK_JOIN_VARIANTS[variant]
    config = _CONFIG.replace(**overrides)
    config_only = run_single(model, seed=7, faults=3, config=config,
                             keep_series=True)
    spec = run_single(model, seed=7, faults=3, config=config,
                      keep_series=True,
                      workload=fork_join_spec(**spec_kwargs))
    assert config_only.workload is None
    assert spec.workload == "fork_join"
    assert _strip_workload(spec) == _strip_workload(config_only)
    assert spec.noc_stats == config_only.noc_stats
    assert spec.app_stats == config_only.app_stats
    assert spec.series.as_dict() == config_only.series.as_dict()


def test_config_only_load_aware_balances_the_static_weights():
    """Config-only ``load_aware`` falls back to the static 1:3:1 weights,
    so it places exactly like ``balanced``; balancing the compiled
    workload's demand weights would move nodes (and joins)."""
    load_aware = run_single(
        "ffw", seed=7, faults=3, keep_series=True,
        config=_CONFIG.replace(initial_mapping="load_aware"),
    )
    balanced = run_single(
        "ffw", seed=7, faults=3, keep_series=True,
        config=_CONFIG.replace(initial_mapping="balanced"),
    )
    assert load_aware.as_row() == balanced.as_row()
    assert load_aware.app_stats == balanced.app_stats
    assert load_aware.series.as_dict() == balanced.series.as_dict()


def test_multicast_spec_matches_legacy_multicast():
    config_only = run_single(
        "ffw", seed=7, faults=2,
        config=_CONFIG.replace(multicast_fork=True), keep_series=True,
    )
    spec = run_single(
        "ffw", seed=7, faults=2,
        config=_CONFIG.replace(multicast_fork=True), keep_series=True,
        workload=fork_join_spec(multicast=True),
    )
    assert _strip_workload(spec) == _strip_workload(config_only)
    assert spec.series.as_dict() == config_only.series.as_dict()


# -- time-varying arrivals ---------------------------------------------------


def test_burst_workload_repeats_bit_identically():
    first = run_single("ffw", seed=7, faults=2, config=_CONFIG,
                       keep_series=True, workload=_BURST)
    second = run_single("ffw", seed=7, faults=2, config=_CONFIG,
                        keep_series=True, workload=_BURST)
    # The burst gate opens: joins complete, so the repeat compares work.
    assert first.app_stats["joins"] > 0
    assert first.as_row() == second.as_row()
    assert first.noc_stats == second.noc_stats
    assert first.app_stats == second.app_stats
    assert first.series.as_dict() == second.series.as_dict()


def test_per_task_series_exports_only_when_opted_in():
    plain = run_single("ffw", seed=7, config=_CONFIG, keep_series=True,
                       workload=_BURST)
    assert "task_executions" not in plain.series.as_dict()
    opted = run_single(
        "ffw", seed=7, config=_CONFIG, keep_series=True,
        workload=dict(_BURST, per_task_series=True),
    )
    tracked = opted.series.as_dict()["task_executions"]
    assert tracked
    assert all(any(column) for column in tracked.values())


# -- the workloads campaign axis ---------------------------------------------


def _axis_spec(**changes):
    base = dict(
        name="workload-axis",
        models=("none", "ffw"),
        seeds=(7, 8),
        fault_counts=(0, 2),
        config=_CONFIG,
        workloads=("fork_join", _BURST),
    )
    base.update(changes)
    return CampaignSpec(**base)


def test_workload_axis_multiplies_size_and_expansion():
    spec = _axis_spec()
    cells = spec.expand()
    assert spec.size() == 2 * 2 * 2 * 2
    assert len(cells) == spec.size()
    names = [cell.workload.name for cell in cells]
    # Model-major, workload next: each model sweeps the whole fault axis
    # under fork_join before repeating it under the burst workload.
    assert names == (["fork_join"] * 4 + ["burst-fan"] * 4) * 2
    assert len({cell.key() for cell in cells}) == len(cells)
    assert all(cell.cell()[-1] == cell.workload.name for cell in cells)


def test_empty_workload_axis_expands_byte_identically():
    with_axis = _axis_spec(workloads=()).expand()
    without = CampaignSpec(
        name="workload-axis", models=("none", "ffw"), seeds=(7, 8),
        fault_counts=(0, 2), config=_CONFIG,
    ).expand()
    assert [c.key() for c in with_axis] == [c.key() for c in without]


def test_workload_axis_round_trips_through_dict():
    spec = _axis_spec()
    clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.to_dict() == spec.to_dict()
    assert [c.key() for c in clone.expand()] == [
        c.key() for c in spec.expand()
    ]


def test_legacy_spec_dict_has_no_workloads_key():
    assert "workloads" not in _axis_spec(workloads=()).to_dict()


def test_duplicate_workload_names_rejected():
    with pytest.raises(ValueError):
        _axis_spec(workloads=("fork_join", "fork_join"))


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        _axis_spec(workloads=("no_such_workload",))
