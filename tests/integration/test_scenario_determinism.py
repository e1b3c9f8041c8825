"""Scenario-engine determinism: legacy fault counts are bit-identical.

The FaultInjector is now an interpreter for declarative FaultScenarios;
the legacy surface — ``run_single(faults=n)`` and campaign
``fault_counts`` — must keep producing exactly the rows it produced
before the rework (mirroring test_campaign_determinism.py, which pins
the same property for the campaign store).  Three angles:

* a hand-rolled replica of the *pre-rework* injection code (the PR 2
  ``FaultInjector._inject`` body scheduled directly on the kernel) must
  match today's ``run_single(faults=n)`` — this pins the RNG contract
  (stream name, alive-list order, ``min``-capped ``rng.sample``);
* a burst-scenario cell must row up like the count cell of the same
  size: ``run_single(faults=n)`` applies that same burst, so this pins
  the runner's scenario boundary and ``faults`` column, not a second
  injection path;
* a campaign over ``fault_counts`` must equal the plain sequential seed
  path, cold and resumed, and scenario cells must hash apart from
  legacy cells.
"""

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, RunDescriptor
from repro.experiments.runner import run_single
from repro.experiments.settling import recovery_analysis, settling_analysis
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)
_MODELS = ("none", "network_interaction", "foraging_for_work")


def _legacy_replica_row(model, seed, faults, config):
    """Run with the PR 2 injection code scheduled by hand.

    This is a line-for-line replica of the historic
    ``FaultInjector.schedule``/``_inject`` pair, bypassing today's
    injector entirely; any drift in the scenario engine's RNG usage or
    event priority shows up as a row mismatch.
    """
    platform = CenturionPlatform(config, model_name=model, seed=seed)
    sim = platform.sim

    def inject(count=faults):
        controller = platform.controller
        rng = sim.rng.stream("fault-injection")
        alive = controller.alive_nodes()
        count = min(count, len(alive))
        for node_id in rng.sample(alive, count):
            controller.inject_fault(node_id)

    sim.schedule_at(
        config.fault_time_us, inject, priority=sim.PRIORITY_CONTROL
    )
    series = platform.run()
    fault_time_ms = config.fault_time_us / 1000.0
    settling_time, settled_perf = settling_analysis(
        series, end_ms=fault_time_ms, metric="joins"
    )
    recovery_time, recovered_perf = recovery_analysis(
        series, fault_time_ms, metric="joins"
    )
    return {
        "model": platform.model_name,
        "seed": seed,
        "faults": faults,
        "settling_time_ms": settling_time,
        "settled_performance": settled_perf,
        "recovery_time_ms": recovery_time,
        "recovered_performance": recovered_perf,
        "total_switches": platform.total_task_switches(),
    }


@pytest.mark.parametrize("model", _MODELS)
def test_legacy_counts_match_pre_rework_injection(model):
    replica = _legacy_replica_row(model, seed=11, faults=4, config=_CONFIG)
    current = run_single(
        model, seed=11, faults=4, config=_CONFIG, keep_series=False
    )
    assert current.as_row() == replica


def test_zero_burst_scenario_matches_legacy_zero_faults():
    legacy = run_single(
        "none", seed=12, faults=0, config=_CONFIG, keep_series=False
    )
    declarative = run_single(
        "none", seed=12, config=_CONFIG, keep_series=False,
        scenario=FaultScenario.burst(0, _CONFIG.fault_time_us),
    )
    legacy_row = legacy.as_row()
    declarative_row = declarative.as_row()
    declarative_row.pop("scenario")
    assert declarative_row == legacy_row


@pytest.mark.parametrize("model", _MODELS)
@pytest.mark.parametrize("faults", [1, 5])
def test_burst_scenario_cell_rows_up_like_its_count_cell(model, faults):
    """A burst-scenario cell gets the count cell's row (plus its
    ``scenario`` column), NoC stats and app stats.

    ``run_single(faults=n)`` injects ``FaultScenario.burst(n)`` as well,
    so both sides run the same injector.  What this pins is
    ``run_single``'s handling of each side: the recovery boundary (the
    config's fault time against the scenario's first fault) and the
    ``faults`` column (the count against the injected victims).
    """
    legacy = run_single(
        model, seed=12, faults=faults, config=_CONFIG, keep_series=False
    )
    scenario = FaultScenario.burst(faults, _CONFIG.fault_time_us)
    declarative = run_single(
        model, seed=12, config=_CONFIG, keep_series=False,
        scenario=scenario,
    )
    legacy_row = legacy.as_row()
    declarative_row = declarative.as_row()
    # The scenario column is the only admissible difference.
    assert declarative_row.pop("scenario") == scenario.name
    assert declarative_row == legacy_row
    assert declarative.noc_stats == legacy.noc_stats
    assert declarative.app_stats == legacy.app_stats


def test_legacy_campaign_rows_bit_identical_to_seed_path(tmp_path):
    spec = CampaignSpec(
        name="legacy-determinism",
        models=("none", "foraging_for_work"),
        seeds=(11, 12),
        fault_counts=(0, 3),
        config=_CONFIG,
    )
    sequential = [
        run_single(
            model, seed, faults=faults, config=_CONFIG, keep_series=False
        ).as_row()
        for model in spec.models
        for faults in spec.fault_counts
        for seed in spec.seeds
    ]
    cold = run_campaign(spec, store=str(tmp_path), processes=2)
    warm = run_campaign(spec, store=str(tmp_path), processes=2)
    assert warm.executed == 0
    assert [r.as_row() for r in cold.results] == sequential
    assert [r.as_row() for r in warm.results] == sequential


def test_scenario_axis_campaign_is_deterministic(tmp_path):
    scenario = FaultScenario(
        name="wave-then-cut",
        events=(
            {"at_us": 60_000, "count": 2, "repeats": 2,
             "period_us": 20_000},
            {"at_us": 70_000, "kind": "link", "count": 1,
             "duration_us": 20_000},
        ),
    )
    spec = CampaignSpec(
        name="scenario-determinism",
        models=("none",),
        seeds=(11, 12),
        fault_counts=(),
        scenarios=(scenario,),
        config=_CONFIG,
    )
    cold = run_campaign(spec, store=str(tmp_path), processes=2)
    warm = run_campaign(spec, store=str(tmp_path), processes=2)
    fresh = run_campaign(spec, processes=0)
    assert warm.executed == 0
    rows = [r.as_row() for r in cold.results]
    assert rows == [r.as_row() for r in warm.results]
    assert rows == [r.as_row() for r in fresh.results]
    assert all(row["scenario"] == "wave-then-cut" for row in rows)


def test_scenario_cells_hash_apart_from_legacy_cells():
    legacy = RunDescriptor("none", 11, 0, _CONFIG)
    burst = RunDescriptor(
        "none", 11, 0, _CONFIG,
        scenario=FaultScenario.burst(0, _CONFIG.fault_time_us),
    )
    other = RunDescriptor(
        "none", 11, 0, _CONFIG,
        scenario=FaultScenario.burst(1, _CONFIG.fault_time_us),
    )
    assert len({legacy.key(), burst.key(), other.key()}) == 3


def test_legacy_key_payload_unchanged_by_scenario_field():
    """The pre-scenario key recipe reproduces today's legacy keys."""
    import hashlib
    import json

    from repro.campaign.spec import HASH_SCHEMA_VERSION

    # Hand-rolled replica of the pre-dynamics config payload (the exact
    # field set PR 3 keys hashed); the canonical-optional dynamics
    # fields must stay absent at their defaults.
    from tests.integration.test_fault_v2_determinism import _v1_config_dict

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
