"""Fault-taxonomy-v2 determinism pins.

Two properties guard the new fault kinds (degraded links, corrupting
links, controller attach-point failures, hazard-rate storms):

* **bit-identical repeats** — every new kind, alone and composed, must
  reproduce the identical row, statistics and metrics series when run
  twice at a fixed seed (same contract the campaign store is held to);
* **v1 conservation** — scenarios (and legacy fault counts) that avoid
  the new kinds must produce byte-identical stored records and mint the
  exact store keys the PR 3 engine minted, which is pinned here by
  hand-rolled replicas of the PR 3 canonicalisation and key recipes.
"""

import hashlib
import json

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import HASH_SCHEMA_VERSION, CampaignSpec, RunDescriptor
from repro.campaign.store import encode_result
from repro.experiments.runner import run_single
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)

#: One scenario per new fault kind, plus a composition of all four.
V2_SCENARIOS = {
    "link_degrade": FaultScenario(
        name="degrade-det",
        events=(
            {"at_us": 40_000, "kind": "link_degrade", "count": 3,
             "factor": 6.0, "duration_us": 30_000},
        ),
    ),
    "corrupt": FaultScenario(
        name="corrupt-det",
        events=(
            {"at_us": 40_000, "kind": "corrupt", "count": 4,
             "duration_us": 40_000},
        ),
    ),
    "controller": FaultScenario(
        name="controller-det",
        events=(
            {"at_us": 40_000, "kind": "controller", "count": 2,
             "duration_us": 30_000},
        ),
    ),
    "storm": FaultScenario(
        name="storm-det",
        events=(
            {"at_us": 30_000, "kind": "node", "count": 1,
             "hazard_per_us": 0.00008, "horizon_us": 100_000,
             "duration_us": 8_000},
        ),
    ),
    "composed": FaultScenario(
        name="v2-composed",
        events=(
            {"at_us": 30_000, "kind": "link_degrade", "count": 2,
             "factor": 4, "duration_us": 20_000},
            {"at_us": 35_000, "kind": "corrupt", "count": 2,
             "duration_us": 25_000},
            {"at_us": 40_000, "kind": "controller", "count": 1,
             "duration_us": 20_000},
            {"at_us": 25_000, "kind": "link", "count": 1,
             "hazard_per_us": 0.00005, "horizon_us": 90_000,
             "duration_us": 6_000},
        ),
    ),
}


@pytest.mark.parametrize("kind", sorted(V2_SCENARIOS))
@pytest.mark.parametrize("model", ("none", "foraging_for_work"))
def test_new_kinds_are_bit_identical_across_repeats(kind, model):
    scenario = V2_SCENARIOS[kind]
    first = run_single(
        model, seed=21, config=_CONFIG, scenario=scenario, keep_series=True
    )
    second = run_single(
        model, seed=21, config=_CONFIG, scenario=scenario, keep_series=True
    )
    assert first.as_row() == second.as_row()
    assert first.noc_stats == second.noc_stats
    assert first.app_stats == second.app_stats
    assert first.series.as_dict() == second.series.as_dict()
    # The whole stored record — the bytes a campaign store would keep —
    # is identical too.
    descriptor = RunDescriptor(
        model, 21, 0, _CONFIG, keep_series=True, scenario=scenario
    )

    def blob(result):
        return json.dumps(encode_result(descriptor, result), sort_keys=True)

    assert blob(first) == blob(second)


def test_v2_scenarios_actually_fire():
    """The determinism fixtures must exercise their kind, not no-op."""
    from repro.platform.centurion import CenturionPlatform

    injected = {}
    for kind in ("link_degrade", "corrupt", "controller", "storm"):
        platform = CenturionPlatform(_CONFIG, model_name="none", seed=21)
        platform.inject_scenario(V2_SCENARIOS[kind])
        platform.run()
        injected[kind] = platform
    assert injected["link_degrade"].faults.degraded_victims
    assert injected["corrupt"].faults.corrupted_victims
    assert injected["corrupt"].network.stats.get("delivered_corrupted", 0) > 0
    assert injected["controller"].faults.controller_victims
    assert injected["storm"].faults.victims  # storm killed nodes
    # Every transient recovered by the horizon.
    for kind, platform in injected.items():
        assert platform.faults.recovered, kind


# -- v1 conservation --------------------------------------------------------

#: The exact event-field set the PR 3 schema canonicalised.  If this
#: test ever needs updating because a *new* field leaked into v1
#: canonical dicts, stored scenario keys have been silently invalidated.
V1_FIELDS = (
    "kind", "count", "victims", "pattern", "row", "column", "region",
    "center", "radius", "duration_us", "repeats", "period_us",
)

_V1_DEFAULTS = {
    "kind": "node", "count": None, "victims": None, "pattern": "uniform",
    "row": None, "column": None, "region": None, "center": None,
    "radius": 1, "duration_us": None, "repeats": 1, "period_us": None,
}


def _v1_canonical_event(**fields):
    """The PR 3 canonical dict recipe, replicated by hand."""
    data = {"at_us": fields.pop("at_us")}
    for name in V1_FIELDS:
        data[name] = fields.pop(name, _V1_DEFAULTS[name])
    assert not fields
    return data


#: The exact config-field set PR 3 keys hashed (every pre-dynamics
#: ``PlatformConfig`` field).  If this list ever needs a new entry to
#: make the replica test pass, a post-v1 field has leaked into
#: canonical dicts and every stored key has been silently invalidated.
V1_CONFIG_FIELDS = (
    "width", "height", "flit_time_us", "wire_latency_us",
    "router_latency_us", "packet_flits", "deadlock_wait_limit_us",
    "max_reroutes", "recent_queue_depth", "routing_mode", "fast_path",
    "queue_capacity", "service_jitter", "overflow_hold_us", "fork_width",
    "generation_period_us", "source_service_us", "branch_service_us",
    "sink_service_us", "packet_deadline_us", "multicast_fork",
    "aim_tick_us", "ni_threshold", "ffw_timeout_us",
    "ffw_deadline_margin_us", "initial_mapping", "metrics_window_us",
    "horizon_us", "fault_time_us",
)


def _v1_config_dict(config):
    """The v1 config-payload recipe, replicated by hand; the retired
    ``fast_path`` is spelled as the ``true`` every v1 key hashed."""
    data = {
        name: getattr(config, name)
        for name in V1_CONFIG_FIELDS
        if name != "fast_path"
    }
    data["fast_path"] = True
    return data


V1_SCENARIO = FaultScenario(
    name="pre-v2",
    events=(
        {"at_us": 60_000, "count": 3},
        {"at_us": 60_000, "count": 2, "pattern": "row", "row": 1,
         "duration_us": 20_000},
        {"at_us": 70_000, "kind": "link", "victims": [[0, 1]],
         "repeats": 2, "period_us": 15_000, "duration_us": 5_000},
    ),
)


def test_v1_scenario_canonical_bytes_unchanged():
    expected = {
        "name": "pre-v2",
        "events": [
            _v1_canonical_event(at_us=60_000, count=3),
            _v1_canonical_event(
                at_us=60_000, count=2, pattern="row", row=1,
                duration_us=20_000,
            ),
            _v1_canonical_event(
                at_us=70_000, kind="link", victims=[[0, 1]], repeats=2,
                period_us=15_000, duration_us=5_000,
            ),
        ],
    }
    assert V1_SCENARIO.canonical() == expected
    blob = json.dumps(expected, sort_keys=True, separators=(",", ":"))
    assert V1_SCENARIO.key() == hashlib.sha256(
        blob.encode("utf-8")
    ).hexdigest()


def test_v1_scenario_cell_key_replicates_pr3_recipe():
    descriptor = RunDescriptor(
        "ffw", 7, 0, _CONFIG, scenario=V1_SCENARIO
    )
    payload = {
        "schema": HASH_SCHEMA_VERSION,
        "model": "foraging_for_work",
        "seed": 7,
        "faults": 0,
        "metric": "joins",
        "config": _v1_config_dict(_CONFIG),
        "scenario": V1_SCENARIO.canonical(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert descriptor.key() == hashlib.sha256(
        blob.encode("utf-8")
    ).hexdigest()


def test_v2_fields_mint_distinct_keys():
    base = FaultScenario(
        name="k", events=({"at_us": 1_000, "kind": "link", "count": 1},)
    )
    degrade = FaultScenario(
        name="k", events=(
            {"at_us": 1_000, "kind": "link_degrade", "count": 1,
             "factor": 2},
        ),
    )
    degrade_harder = FaultScenario(
        name="k", events=(
            {"at_us": 1_000, "kind": "link_degrade", "count": 1,
             "factor": 3},
        ),
    )
    storm = FaultScenario(
        name="k", events=(
            {"at_us": 1_000, "kind": "link", "count": 1,
             "hazard_per_us": 0.001, "horizon_us": 5_000},
        ),
    )
    keys = {s.key() for s in (base, degrade, degrade_harder, storm)}
    assert len(keys) == 4


def test_legacy_run_records_carry_no_v2_surface():
    """A v1 run's stored record exposes exactly the PR 3 key set."""
    result = run_single(
        "none", seed=11, faults=3, config=_CONFIG, keep_series=True
    )
    record = encode_result(
        RunDescriptor("none", 11, 3, _CONFIG, keep_series=True), result
    )
    assert sorted(record["noc_stats"]) == sorted(
        ("sent", "delivered", "dropped_deadlock", "dropped_no_provider",
         "dropped_fault", "reroutes", "hops")
    )
    assert "corrupted_deliveries" not in record["series"]
    assert sorted(record["series"]) == sorted(
        ("time_ms", "active_nodes", "executions", "sink_executions",
         "joins", "task_switches", "alive_nodes", "census")
    )


def test_v2_scenario_campaign_cold_warm_fresh_identical(tmp_path):
    spec = CampaignSpec(
        name="v2-campaign-det",
        models=("none",),
        seeds=(21, 22),
        fault_counts=(),
        scenarios=(V2_SCENARIOS["composed"],),
        config=_CONFIG,
    )
    cold = run_campaign(spec, store=str(tmp_path), processes=2)
    warm = run_campaign(spec, store=str(tmp_path), processes=2)
    fresh = run_campaign(spec, processes=0)
    assert warm.executed == 0
    rows = [r.as_row() for r in cold.results]
    assert rows == [r.as_row() for r in warm.results]
    assert rows == [r.as_row() for r in fresh.results]
    assert all(row["scenario"] == "v2-composed" for row in rows)
