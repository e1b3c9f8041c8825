"""Tests for the Figure 2a monitor and knob surface."""

import pytest

from repro.core.knobs import standard_knob_bank
from repro.core.monitors import standard_monitor_bank
from repro.noc.packet import Packet


@pytest.fixture
def node(small_platform):
    """Node 5 of the small platform with its monitor and knob banks."""
    platform = small_platform
    pe = platform.pes[5]
    router = platform.network.router(5)
    monitors = standard_monitor_bank(platform.sim, pe, router,
                                     platform.network)
    knobs = standard_knob_bank(pe, router, reason="test")
    return platform, pe, router, monitors, knobs


EXPECTED_MONITORS = {
    "queue_length",
    "current_task",
    "frequency_mhz",
    "temperature_c",
    "watchdog_expired",
    "neighbor_tasks",
    "routed_task_counts",
    "recent_task_queue",
}


def test_full_monitor_surface_present(node):
    _platform, _pe, _router, monitors, _knobs = node
    assert set(monitors.names()) == EXPECTED_MONITORS


def test_full_knob_surface_present(node):
    _platform, _pe, _router, _monitors, knobs = node
    assert set(knobs.names()) == {
        "task_select",
        "clock_enable",
        "reset",
        "frequency",
        "router_config",
    }


def test_read_all_returns_snapshot(node):
    _platform, _pe, _router, monitors, _knobs = node
    snapshot = monitors.read_all()
    assert set(snapshot) == EXPECTED_MONITORS


def test_current_task_monitor_tracks_pe(node):
    _platform, pe, _router, monitors, _knobs = node
    pe.set_task(3, reason="test")
    assert monitors.read("current_task") == 3


def test_queue_length_monitor(node):
    platform, pe, _router, monitors, _knobs = node
    pe.set_task(2, reason="test")
    # One executes, one queues.
    pe.receive(Packet(0, dest_task=2))
    pe.receive(Packet(0, dest_task=2))
    assert monitors.read("queue_length") == 1


def test_neighbor_task_monitor_reads_directory(node):
    platform, _pe, _router, monitors, _knobs = node
    # Node 5 of a 4x4 mesh has neighbours 1 (N), 6 (E), 9 (S), 4 (W).
    platform.pes[1].set_task(3, reason="test")
    neighbors = monitors.read("neighbor_tasks")
    assert neighbors["N"] == 3
    assert set(neighbors) == {"N", "E", "S", "W"}


def test_routed_task_counts_monitor(node):
    platform, pe, _router, monitors, _knobs = node
    # A task some other node runs: node 5's router forwards the packet.
    task = min(
        task for task in platform.network.directory.task_census()
        if task != pe.task_id
    )
    platform.network.send(Packet(5, dest_task=task), 5)
    assert monitors.read("routed_task_counts") == {task: 1}


def test_frequency_knob_and_monitor_agree(node):
    _platform, _pe, _router, monitors, knobs = node
    knobs["frequency"].set(200)
    assert monitors.read("frequency_mhz") == 200


def test_task_select_knob_uses_reason(node):
    _platform, pe, _router, _monitors, knobs = node
    knobs["task_select"].set(3)
    assert pe.task_id == 3
    assert pe.task_switches == 1  # reason 'test' counts as intelligence


def test_clock_enable_knob(node):
    _platform, pe, _router, _monitors, knobs = node
    knobs["clock_enable"].set(False)
    assert not pe.clock_enabled
    knobs["clock_enable"].set(True)
    assert pe.clock_enabled


def test_reset_knob_clears_queue(node):
    _platform, pe, _router, _monitors, knobs = node
    pe.set_task(2, reason="test")
    for _ in range(3):
        pe.receive(Packet(0, dest_task=2))
    knobs["reset"].set()
    assert len(pe.queue) == 0


def test_router_config_knob_via_rcap(node):
    _platform, _pe, router, _monitors, knobs = node
    knobs["router_config"].set({"router_latency": 7})
    assert router.config.router_latency == 7


def test_actuation_counts(node):
    _platform, _pe, _router, _monitors, knobs = node
    knobs["frequency"].set(120)
    knobs["frequency"].set(150)
    counts = knobs.actuation_counts()
    assert counts["frequency"] == 2
    assert counts["reset"] == 0


def test_watchdog_monitor_expires_without_work(node):
    platform, _pe, _router, monitors, _knobs = node
    platform.sim.run_until(platform.pes[5].watchdog.timeout_us + 1)
    assert monitors.read("watchdog_expired") in (True, False)
