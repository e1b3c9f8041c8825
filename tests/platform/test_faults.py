"""Tests for the paper's fault burst (``CenturionPlatform.inject_faults``)."""

import pytest

from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultEvent


@pytest.fixture
def platform():
    return CenturionPlatform(PlatformConfig.small(), model_name="none",
                             seed=21)


def test_faults_land_at_scheduled_time(platform):
    platform.inject_faults(3, at_us=50_000)
    platform.sim.run_until(49_999)
    assert len(platform.faults.victims) == 0
    platform.sim.run_until(50_000)
    assert len(platform.faults.victims) == 3


def test_victims_are_unique_and_halted(platform):
    platform.inject_faults(5, at_us=10_000)
    platform.sim.run_until(20_000)
    victims = platform.faults.victims
    assert len(set(victims)) == 5
    assert all(platform.pes[v].halted for v in victims)


def test_victims_deterministic_per_seed():
    def victims_for(seed):
        p = CenturionPlatform(PlatformConfig.small(), model_name="none",
                              seed=seed)
        p.inject_faults(4, at_us=10_000)
        p.sim.run_until(20_000)
        return p.faults.victims

    assert victims_for(3) == victims_for(3)
    assert victims_for(3) != victims_for(4)


def test_explicit_victims_pinned(platform):
    platform.inject_faults(2, at_us=10_000, victims=[3, 7])
    platform.sim.run_until(20_000)
    assert platform.faults.victims == [3, 7]


def test_count_and_victims_must_agree(platform):
    with pytest.raises(ValueError):
        platform.inject_faults(2, at_us=10_000, victims=[3, 7, 9])
    with pytest.raises(ValueError):
        platform.inject_faults(4, at_us=10_000, victims=[3])
    with pytest.raises(ValueError):
        platform.inject_faults(0, at_us=10_000, victims=[3])
    # Nothing was applied by the rejected calls.
    assert platform.faults.scenarios == []


def test_pinned_victim_outside_the_mesh_rejected_at_injection(platform):
    with pytest.raises(ValueError, match="outside the 16-node mesh"):
        platform.inject_faults(1, at_us=10_000, victims=[16])
    assert platform.faults.scenarios == []


def test_applied_bursts_record_pinned_victims(platform):
    platform.inject_faults(2, at_us=10_000, victims=[3, 7])
    platform.inject_faults(1, at_us=20_000)
    assert [s.events for s in platform.faults.scenarios] == [
        (FaultEvent(at_us=10_000, count=2, victims=(3, 7)),),
        (FaultEvent(at_us=20_000, count=1),),
    ]


def test_zero_faults_is_noop(platform):
    scenario = platform.inject_faults(0, at_us=10_000)
    platform.sim.run_until(20_000)
    assert platform.faults.victims == []
    assert scenario.events == ()
    assert scenario.first_fault_us() is None


def test_negative_count_rejected(platform):
    with pytest.raises(ValueError):
        platform.inject_faults(-1, at_us=10_000)


def test_count_capped_at_alive_nodes(platform):
    platform.inject_faults(999, at_us=10_000)
    platform.sim.run_until(20_000)
    assert len(platform.faults.victims) == 16


def test_fault_event_traced(platform):
    platform.inject_faults(1, at_us=10_000)
    platform.sim.run_until(20_000)
    assert platform.trace.count("node_failed") == 1
