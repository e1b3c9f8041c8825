"""Tests for the closed-loop self-healing dynamics seam.

Covers the governor policies in isolation, the platform-level throttle /
restore loop, thermal-storm heat injection, deadlock-pressure claim
arbitration, and watchdog-driven autonomous recovery (including its
idempotence against the scripted recovery path).
"""

import pytest

from repro.noc.packet import Packet, PacketStatus
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.dynamics import HysteresisGovernor, build_governor

SMALL = dict(width=4, height=4, horizon_us=200_000, fault_time_us=100_000)


def _platform(seed=7, model="none", **overrides):
    base = dict(SMALL)
    base.update(overrides)
    return CenturionPlatform(
        PlatformConfig(**base), model_name=model, seed=seed
    )


# -- governor policies -------------------------------------------------------


class TestThresholdThrottleGovernor:
    """``"threshold-throttle"``: one threshold, no dwell."""

    def _gov(self):
        return build_governor(PlatformConfig(
            dvfs_governor="threshold-throttle", governor_hot_c=70.0,
            governor_throttle_mhz=50, **SMALL
        ))

    def test_throttles_above_hot(self):
        gov = self._gov()
        assert gov.decide(0, 70.5, throttled=False) == "throttle"

    def test_holds_at_or_below_hot(self):
        gov = self._gov()
        assert gov.decide(0, 70.0, throttled=False) is None
        assert gov.decide(0, 35.0, throttled=False) is None

    def test_restores_at_hot(self):
        gov = self._gov()
        assert gov.decide(0, 70.0, throttled=True) == "restore"
        assert gov.decide(0, 71.0, throttled=True) is None

    def test_no_dwell(self):
        gov = self._gov()
        assert gov.earliest_change_us(123) == 123
        # Back-to-back transitions at one instant are allowed.
        assert gov.decide(200, 75.0, throttled=False) == "throttle"
        assert gov.decide(200, 70.0, throttled=True) == "restore"
        assert gov.earliest_change_us(200) == 200


class TestHysteresisGovernor:
    def _gov(self, dwell=1_000):
        return HysteresisGovernor(
            hot_c=70.0, cool_c=60.0, throttle_mhz=50, dwell_us=dwell
        )

    def test_throttles_above_hot_restores_below_cool(self):
        gov = self._gov(dwell=0)
        assert gov.decide(0, 75.0, throttled=False) == "throttle"
        # Between the thresholds: hold either way.
        assert gov.decide(10, 65.0, throttled=True) is None
        assert gov.decide(20, 60.0, throttled=True) == "restore"

    def test_dwell_blocks_rapid_transitions(self):
        gov = self._gov(dwell=1_000)
        assert gov.decide(0, 75.0, throttled=False) == "throttle"
        # Even a full cool-down cannot restore within the dwell.
        assert gov.decide(999, 40.0, throttled=True) is None
        assert gov.decide(1_000, 40.0, throttled=True) == "restore"

    def test_earliest_change_honours_dwell(self):
        gov = self._gov(dwell=1_000)
        gov.decide(100, 75.0, throttled=False)
        assert gov.earliest_change_us(200) == 1_100
        assert gov.earliest_change_us(5_000) == 5_000

    def test_cool_must_not_lie_above_hot(self):
        with pytest.raises(ValueError):
            HysteresisGovernor(
                hot_c=70.0, cool_c=70.5, throttle_mhz=50, dwell_us=0
            )

    def test_config_keeps_cool_below_hot(self):
        # The governor accepts cool == hot (the threshold policy), but a
        # config may not ask for it: its cool threshold sits below hot.
        with pytest.raises(ValueError):
            PlatformConfig(
                dvfs_governor="hysteresis", governor_hot_c=70.0,
                governor_cool_c=70.0, **SMALL
            )


def test_build_governor_factory():
    none = build_governor(PlatformConfig(**SMALL))
    assert none is None
    threshold = build_governor(
        PlatformConfig(dvfs_governor="threshold-throttle", **SMALL)
    )
    assert (threshold.cool_c, threshold.dwell_us) == (threshold.hot_c, 0)
    assert threshold.cool_target_c == threshold.hot_c
    hysteresis = build_governor(
        PlatformConfig(dvfs_governor="hysteresis", **SMALL)
    )
    assert isinstance(hysteresis, HysteresisGovernor)
    assert hysteresis.cool_target_c == hysteresis.cool_c
    assert hysteresis.cool_c < hysteresis.hot_c


# -- platform wiring ---------------------------------------------------------


def test_governor_none_registers_no_observers():
    platform = _platform()
    assert platform.dynamics.governors == {}
    for pe in platform.pes.values():
        assert platform.dynamics not in pe._observers


def test_governor_registers_one_observer_per_node():
    platform = _platform(dvfs_governor="hysteresis")
    assert set(platform.dynamics.governors) == set(platform.pes)
    for pe in platform.pes.values():
        assert platform.dynamics in pe._observers
    # One fresh governor instance per node, never shared.
    instances = list(platform.dynamics.governors.values())
    assert len(set(map(id, instances))) == len(instances)


def test_thermal_storm_heats_victims_and_throttles():
    platform = _platform(dvfs_governor="hysteresis", model="ffw")
    platform.inject_scenario({
        "name": "storm",
        "events": [
            {"kind": "thermal_storm", "at_us": 50_000, "victims": [5, 6],
             "heat_c": 40.0},
        ],
    })
    platform.run(60_000)
    assert platform.faults.thermal_victims == [5, 6]
    for node in (5, 6):
        assert platform.pes[node].thermal.temperature(50_000) > 70.0
    assert platform.dynamics.throttle_events >= 2
    for node in (5, 6):
        pe = platform.pes[node]
        assert pe.frequency.current_mhz == 50


def test_throttled_nodes_restore_by_cool_crossing():
    platform = _platform(dvfs_governor="hysteresis", model="ffw")
    platform.inject_scenario({
        "name": "storm",
        "events": [
            {"kind": "thermal_storm", "at_us": 50_000, "victims": [5],
             "heat_c": 40.0},
        ],
    })
    platform.run()
    pe = platform.pes[5]
    assert platform.dynamics.throttle_events >= 1
    assert pe.frequency.current_mhz == pe.frequency.nominal_mhz
    assert 5 not in platform.dynamics._throttled


def test_storm_heats_dead_nodes_without_governing_them():
    platform = _platform(dvfs_governor="hysteresis")
    platform.inject_scenario({
        "name": "dead-heat",
        "events": [
            {"kind": "node", "at_us": 10_000, "victims": [5]},
            {"kind": "thermal_storm", "at_us": 20_000, "victims": [5],
             "heat_c": 40.0},
        ],
    })
    platform.run(30_000)
    pe = platform.pes[5]
    assert pe.halted
    # Dead silicon warms too, but the governor never actuates it.
    assert pe.thermal.temperature(20_000) > 70.0
    assert pe.frequency.current_mhz == pe.frequency.nominal_mhz


def test_dynamics_free_run_schedules_nothing():
    platform = _platform()
    platform.run()
    dynamics = platform.dynamics
    assert dynamics.throttle_events == 0
    assert dynamics.autonomous_recoveries == 0
    assert dynamics._next_check == {}
    assert dynamics._wd_due == {}
    for pe in platform.pes.values():
        assert pe.frequency.current_mhz == pe.frequency.nominal_mhz


# -- deadlock pressure -------------------------------------------------------


def test_deadlock_pressure_sets_and_expires():
    platform = _platform()
    platform.inject_scenario({
        "name": "pressure",
        "events": [
            {"kind": "deadlock_pressure", "at_us": 10_000, "victims": [3],
             "wait_limit_us": 500, "duration_us": 20_000},
        ],
    })
    platform.run(40_000)
    assert platform.faults.pressure_victims == [3]
    assert platform.network.deadlock_pressure == {}
    assert (30_000, "deadlock_pressure", 3) in platform.faults.recovered


def test_overlapping_pressures_tightest_limit_governs():
    platform = _platform()
    platform.inject_scenario({
        "name": "overlap",
        "events": [
            {"kind": "deadlock_pressure", "at_us": 10_000, "victims": [3],
             "wait_limit_us": 900, "duration_us": 40_000},
            {"kind": "deadlock_pressure", "at_us": 20_000, "victims": [3],
             "wait_limit_us": 300, "duration_us": 10_000},
        ],
    })
    sim = platform.sim
    network = platform.network
    platform.run(15_000)
    assert network.deadlock_pressure[3] == 900
    platform.run(25_000)
    assert network.deadlock_pressure[3] == 300  # tighter claim wins
    platform.run(35_000)
    assert network.deadlock_pressure[3] == 900  # relaxes to the survivor
    platform.run(55_000)
    assert 3 not in network.deadlock_pressure
    assert sim.now >= 50_000


def _send_over_busy_link(network, wait):
    """Send a packet from node 0 to node 1 (the only provider of a fresh
    task) while the 0 -> 1 link stays busy for ``wait`` µs."""
    task = max(network.directory.task_census()) + 1
    network.directory.set_task(1, task)
    link = network.links[(0, 1)]
    link.busy_until = network.sim.now + wait
    packet = Packet(src_node=0, dest_task=task, created_at=0)
    network.send(packet, 0)
    return packet, link


def test_pressure_drops_waiting_packets():
    """A pressured router drops on waits the global bound tolerates."""
    platform = _platform()
    network = platform.network
    network.set_deadlock_pressure(0, 10)
    before = network.stats["dropped_deadlock"]
    pending = platform.sim.pending_events
    packet, link = _send_over_busy_link(network, 1_000)
    assert network.stats["dropped_deadlock"] == before + 1
    assert packet.status == PacketStatus.DROPPED_DEADLOCK
    assert platform.sim.pending_events == pending  # no hop posted
    assert link.busy_until == platform.sim.now + 1_000


def test_unpressured_wait_still_tolerated():
    """The same wait is tolerated once the pressure is cleared."""
    platform = _platform()
    network = platform.network
    network.set_deadlock_pressure(0, 10)
    network.clear_deadlock_pressure(0)
    pending = platform.sim.pending_events
    packet, link = _send_over_busy_link(network, 1_000)
    assert network.stats["dropped_deadlock"] == 0
    assert packet.status == PacketStatus.IN_FLIGHT
    assert platform.sim.pending_events == pending + 1  # the next hop
    assert link.busy_until > platform.sim.now + 1_000  # link claimed


# -- watchdog-driven autonomous recovery -------------------------------------


def test_watchdog_recovers_killed_node_once():
    platform = _platform(
        watchdog_recovery=True, watchdog_timeout_us=20_000, model="ffw"
    )
    platform.inject_scenario({
        "name": "kill",
        "events": [
            {"kind": "node", "at_us": 60_000, "victims": [5],
             "duration_us": 100_000},
        ],
    })
    platform.run()
    pe = platform.pes[5]
    assert not pe.halted
    assert platform.dynamics.autonomous_recoveries == 1
    # Exactly one recovery total: the scripted path at 160 ms found the
    # node already alive and changed nothing.
    assert len(platform.controller.faults_recovered) == 1
    recovered_at = platform.controller.faults_recovered[0][0]
    assert recovered_at < 160_000
    # The observation went through check_and_count: the expiry the
    # controller acted on is counted on the node's own watchdog.
    assert pe.watchdog.expirations == 1


def test_scripted_recovery_winning_leaves_watchdog_quiet():
    """When scripted recovery lands first, the watchdog check reads a
    healthy (re-kicked) node: no expiry counted, no second recovery."""
    platform = _platform(
        watchdog_recovery=True, watchdog_timeout_us=80_000, model="ffw"
    )
    platform.inject_scenario({
        "name": "kill",
        "events": [
            {"kind": "node", "at_us": 60_000, "victims": [5],
             "duration_us": 10_000},
        ],
    })
    platform.run()
    pe = platform.pes[5]
    assert not pe.halted
    assert platform.dynamics.autonomous_recoveries == 0
    assert len(platform.controller.faults_recovered) == 1
    assert platform.controller.faults_recovered[0][0] == 70_000
    assert pe.watchdog.expirations == 0


def test_watchdog_recovery_off_leaves_scripted_path_alone():
    platform = _platform(model="ffw")
    platform.inject_scenario({
        "name": "kill",
        "events": [
            {"kind": "node", "at_us": 60_000, "victims": [5],
             "duration_us": 100_000},
        ],
    })
    platform.run()
    assert platform.dynamics.autonomous_recoveries == 0
    assert len(platform.controller.faults_recovered) == 1
    assert platform.controller.faults_recovered[0][0] == 160_000


def test_killed_throttled_node_recovers_at_nominal_frequency():
    platform = _platform(
        dvfs_governor="hysteresis", watchdog_recovery=True,
        watchdog_timeout_us=20_000, model="ffw",
    )
    platform.inject_scenario({
        "name": "storm-kill",
        "events": [
            {"kind": "thermal_storm", "at_us": 50_000, "victims": [5],
             "heat_c": 40.0},
            {"kind": "node", "at_us": 51_000, "victims": [5],
             "duration_us": 100_000},
        ],
    })
    platform.run(52_000)
    assert platform.pes[5].halted
    platform.run()
    pe = platform.pes[5]
    assert not pe.halted
    # The reboot cleared the throttle; the node is not stuck at 50 MHz.
    assert pe.frequency.current_mhz == pe.frequency.nominal_mhz
    assert 5 not in platform.dynamics._throttled


@pytest.fixture(scope="module")
def storm_and_kill():
    """A random 4-node thermal storm at 50 ms and a random node kill at
    60 ms (scripted recovery at 160 ms) on the small platform, with the
    hysteresis governor and a 20 ms watchdog; run to the horizon."""
    platform = CenturionPlatform(
        PlatformConfig.small(
            dvfs_governor="hysteresis", watchdog_recovery=True,
            watchdog_timeout_us=20_000,
        ),
        model_name="ffw", seed=7,
    )
    platform.inject_scenario({
        "name": "storm-and-kill",
        "events": [
            {"kind": "thermal_storm", "at_us": 50_000, "count": 4,
             "heat_c": 40.0},
            {"kind": "node", "at_us": 60_000, "count": 1,
             "duration_us": 100_000},
        ],
    })
    return platform, platform.run()


def test_storm_and_kill_restore_every_node_and_recover_once(
    storm_and_kill,
):
    platform, _series = storm_and_kill
    assert platform.dynamics.throttle_events > 0
    assert all(
        pe.frequency.current_mhz == pe.frequency.nominal_mhz
        for pe in platform.pes.values()
    )
    # One recovery in all, and the watchdog made it before the scripted
    # path was due.
    assert len(platform.controller.faults_recovered) == 1
    assert platform.dynamics.autonomous_recoveries == 1
    assert platform.controller.faults_recovered[0][0] < 160_000


def test_metrics_series_records_dynamics_columns(storm_and_kill):
    platform, series = storm_and_kill
    data = series.as_dict()
    assert sum(data["throttle_events"]) == platform.dynamics.throttle_events
    assert sum(data["autonomous_recoveries"]) == 1


def test_dynamics_free_series_omits_dynamics_columns():
    platform = _platform(model="ffw")
    platform.inject_faults(2)
    data = platform.run().as_dict()
    assert "throttle_events" not in data
    assert "autonomous_recoveries" not in data
    assert "deadlock_drops" not in data
