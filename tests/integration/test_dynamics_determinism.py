"""Determinism and hash-conservation gates for the dynamics seam.

Four angles, mirroring the other determinism layers:

* key conservation — a dynamics-free config content-hashes to the exact
  pre-dynamics payload (hand-rolled replica recipe), while changing any
  dynamics field mints a fresh key through ``canonical()``;
* bit-identical repeats — thermal storms, deadlock pressure, and
  composed closed-loop scenarios produce byte-identical rows across
  repeats;
* the closed-loop race — a killed node with a scripted recovery at T
  and a watchdog due earlier recovers exactly once, at the watchdog's
  deterministic time, and the scripted-wins mirror case leaves the
  watchdog path completely quiet;
* the governors campaign axis — expansion order, size, key
  distinctness, and spec round-trips.
"""

import hashlib
import json

import pytest

from repro.campaign.spec import CampaignSpec, HASH_SCHEMA_VERSION, RunDescriptor
from repro.experiments.runner import run_single
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

from tests.integration.test_fault_v2_determinism import _v1_config_dict

_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)

_STORM = FaultScenario.from_dict({
    "name": "storm",
    "events": [
        {"kind": "thermal_storm", "at_us": 50_000, "count": 3,
         "heat_c": 40.0},
    ],
})

_PRESSURE = FaultScenario.from_dict({
    "name": "pressure",
    "events": [
        {"kind": "deadlock_pressure", "at_us": 40_000, "count": 2,
         "wait_limit_us": 100, "duration_us": 40_000},
    ],
})

_CLOSED_LOOP = FaultScenario.from_dict({
    "name": "closed-loop",
    "events": [
        {"kind": "thermal_storm", "at_us": 30_000, "count": 4,
         "heat_c": 40.0},
        {"kind": "node", "at_us": 40_000, "count": 1,
         "duration_us": 60_000},
        {"kind": "deadlock_pressure", "at_us": 50_000, "count": 2,
         "wait_limit_us": 100, "duration_us": 30_000},
    ],
})


# -- key conservation --------------------------------------------------------


def test_dynamics_free_key_replicates_v1_recipe():
    """A config that never touches the dynamics fields hashes to the
    exact pre-dynamics payload — the seven canonical-optional fields
    are absent, not present-at-default."""
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


def test_dynamics_config_key_replicates_canonical_recipe():
    """Setting a dynamics field joins exactly that field to the payload."""
    config = _CONFIG.replace(dvfs_governor="hysteresis")
    descriptor = RunDescriptor("ffw", 7, 3, config)
    config_payload = dict(_v1_config_dict(config))
    config_payload["dvfs_governor"] = "hysteresis"
    payload = {
        "schema": HASH_SCHEMA_VERSION,
        "model": "foraging_for_work",
        "seed": 7,
        "faults": 3,
        "metric": "joins",
        "config": config_payload,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert descriptor.key() == hashlib.sha256(
        blob.encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("changes", [
    {"dvfs_governor": "hysteresis"},
    {"dvfs_governor": "threshold-throttle"},
    {"governor_hot_c": 65.0},
    {"governor_cool_c": 55.0},
    {"governor_throttle_mhz": 30},
    {"governor_dwell_us": 5_000},
    {"watchdog_recovery": True},
    {"watchdog_timeout_us": 20_000},
])
def test_each_dynamics_field_mints_a_fresh_key(changes):
    base = RunDescriptor("none", 7, 0, _CONFIG).key()
    changed = RunDescriptor(
        "none", 7, 0, _CONFIG.replace(**changes)
    ).key()
    assert changed != base


def test_defaulted_dynamics_fields_conserve_the_key():
    """Spelling out the defaults explicitly is hash-invisible."""
    explicit = _CONFIG.replace(
        dvfs_governor="none", watchdog_recovery=False,
        watchdog_timeout_us=100_000, governor_hot_c=70.0,
    )
    assert (
        RunDescriptor("none", 7, 0, explicit).key()
        == RunDescriptor("none", 7, 0, _CONFIG).key()
    )
    assert explicit.canonical() == _v1_config_dict(explicit)


def test_new_kind_scenarios_hash_apart():
    keys = {
        RunDescriptor("none", 7, 0, _CONFIG, scenario=s).key()
        for s in (_STORM, _PRESSURE, _CLOSED_LOOP, None)
        if s is not None
    }
    keys.add(RunDescriptor("none", 7, 0, _CONFIG).key())
    assert len(keys) == 4


# -- bit-identical repeats ---------------------------------------------------

_DYN_CONFIG = _CONFIG.replace(
    dvfs_governor="hysteresis",
    watchdog_recovery=True,
    watchdog_timeout_us=20_000,
)


@pytest.mark.parametrize(
    "scenario", [_STORM, _PRESSURE, _CLOSED_LOOP],
    ids=lambda s: s.name,
)
def test_dynamics_scenarios_repeat_bit_identically(scenario):
    first = run_single(
        "ffw", seed=7, config=_DYN_CONFIG, scenario=scenario,
        keep_series=True,
    )
    second = run_single(
        "ffw", seed=7, config=_DYN_CONFIG, scenario=scenario,
        keep_series=True,
    )
    assert first.as_row() == second.as_row()
    assert first.noc_stats == second.noc_stats
    assert first.app_stats == second.app_stats
    assert first.series.as_dict() == second.series.as_dict()


def test_dynamics_free_run_matches_legacy_row_surface():
    """With every dynamics field at rest, the row/series surface is the
    legacy one — no new columns leak into dynamics-free results."""
    legacy = run_single(
        "ffw", seed=7, faults=3, config=_CONFIG, keep_series=True
    )
    explicit = run_single(
        "ffw", seed=7, faults=3,
        config=_CONFIG.replace(dvfs_governor="none"),
        keep_series=True,
    )
    row = legacy.as_row()
    for column in (
        "throttle_events", "autonomous_recoveries", "deadlock_drops",
        "governor",
    ):
        assert column not in row
    assert explicit.as_row() == row
    data = legacy.series.as_dict()
    assert explicit.series.as_dict() == data
    assert "throttle_events" not in data


# -- the closed-loop recovery race -------------------------------------------


def _race_platform(watchdog_timeout_us):
    config = _CONFIG.replace(
        watchdog_recovery=True, watchdog_timeout_us=watchdog_timeout_us
    )
    platform = CenturionPlatform(config, model_name="ffw", seed=7)
    platform.inject_scenario({
        "name": "race",
        "events": [
            {"kind": "node", "at_us": 60_000, "victims": [5],
             "duration_us": 50_000},
        ],
    })
    platform.run()
    return platform


def test_watchdog_wins_race_exactly_once_and_deterministically():
    """Scripted recovery is due at 110 ms; a 20 ms watchdog fires first.
    The node recovers exactly once, at the watchdog's time, and that
    time repeats exactly."""
    times = []
    for _ in range(2):
        platform = _race_platform(watchdog_timeout_us=20_000)
        recovered = platform.controller.faults_recovered
        assert len(recovered) == 1
        recovered_at = recovered[0][0]
        assert 60_000 < recovered_at < 110_000
        assert platform.dynamics.autonomous_recoveries == 1
        assert platform.pes[5].watchdog.expirations == 1
        assert not platform.pes[5].halted
        times.append(recovered_at)
    assert times[0] == times[1]


def test_scripted_recovery_wins_race_and_watchdog_stays_quiet():
    """With a watchdog slower than the scripted duration, the scripted
    path recovers at exactly 110 ms and the watchdog observation path
    reads a healthy re-kicked node — zero expirations counted."""
    platform = _race_platform(watchdog_timeout_us=80_000)
    recovered = platform.controller.faults_recovered
    assert len(recovered) == 1
    assert recovered[0][0] == 110_000
    assert platform.dynamics.autonomous_recoveries == 0
    assert platform.pes[5].watchdog.expirations == 0


# -- the governors campaign axis ---------------------------------------------


def _axis_spec(**changes):
    base = dict(
        name="governor-axis",
        models=("none", "ffw"),
        seeds=(7, 8),
        fault_counts=(0, 2),
        config=_CONFIG,
        governors=("none", "hysteresis"),
    )
    base.update(changes)
    return CampaignSpec(**base)


def test_governor_axis_multiplies_size_and_expansion():
    spec = _axis_spec()
    cells = spec.expand()
    assert spec.size() == 2 * 2 * 2 * 2
    assert len(cells) == spec.size()
    governors = [cell.config.dvfs_governor for cell in cells]
    # Model-major, governor next: each model sweeps the whole fault axis
    # under "none" before repeating it under "hysteresis".
    assert governors == (["none"] * 4 + ["hysteresis"] * 4) * 2
    assert len({cell.key() for cell in cells}) == len(cells)


def test_empty_governor_axis_expands_byte_identically():
    with_axis = _axis_spec(governors=()).expand()
    without = CampaignSpec(
        name="governor-axis", models=("none", "ffw"), seeds=(7, 8),
        fault_counts=(0, 2), config=_CONFIG,
    ).expand()
    assert [c.key() for c in with_axis] == [c.key() for c in without]


def test_governor_axis_round_trips_through_dict():
    spec = _axis_spec()
    clone = CampaignSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.to_dict() == spec.to_dict()
    assert [c.key() for c in clone.expand()] == [
        c.key() for c in spec.expand()
    ]


def test_legacy_spec_dict_has_no_governor_key():
    spec = _axis_spec(governors=())
    data = spec.to_dict()
    assert "governors" not in data
    assert "dvfs_governor" not in data["config"]


def test_unknown_governor_rejected():
    with pytest.raises(ValueError):
        _axis_spec(governors=("turbo",))


def test_duplicate_governors_rejected():
    with pytest.raises(ValueError):
        _axis_spec(governors=("hysteresis", "hysteresis"))
