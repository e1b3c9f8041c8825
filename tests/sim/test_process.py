"""Tests for periodic processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess


def test_ticks_at_fixed_period(sim):
    times = []
    process = PeriodicProcess(sim, 100, lambda p: times.append(sim.now))
    process.start()
    sim.run_until(350)
    assert times == [100, 200, 300]


def test_initial_delay_overrides_first_tick(sim):
    times = []
    process = PeriodicProcess(sim, 100, lambda p: times.append(sim.now))
    process.start(initial_delay=10)
    sim.run_until(250)
    assert times == [10, 110, 210]


def test_stop_halts_ticking(sim):
    times = []
    process = PeriodicProcess(sim, 100, lambda p: times.append(sim.now))
    process.start()
    sim.schedule(250, process.stop)
    sim.run_until(1000)
    assert times == [100, 200]


def test_stop_from_within_callback(sim):
    times = []

    def callback(process):
        times.append(sim.now)
        if len(times) == 2:
            process.stop()

    PeriodicProcess(sim, 50, callback).start()
    sim.run_until(1000)
    assert times == [50, 100]


def test_restart_realigns_phase(sim):
    times = []
    process = PeriodicProcess(sim, 100, lambda p: times.append(sim.now))
    process.start()
    sim.run_until(150)
    process.start()  # restart at t=150
    sim.run_until(400)
    assert times == [100, 250, 350]


def test_tick_counter(sim):
    process = PeriodicProcess(sim, 10, lambda p: None)
    process.start()
    sim.run_until(55)
    assert process.ticks == 5


def test_invalid_period_rejected(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 0, lambda p: None)


def test_jitter_stays_within_bounds(sim):
    times = []
    rng = sim.rng.stream("jitter-test")
    process = PeriodicProcess(
        sim, 100, lambda p: times.append(sim.now), jitter_rng=rng, jitter=20
    )
    process.start()
    sim.run_until(2000)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps, "expected several ticks"
    assert all(100 <= gap <= 120 for gap in gaps)


def test_running_property(sim):
    process = PeriodicProcess(sim, 100, lambda p: None)
    assert not process.running
    process.start()
    assert process.running
    process.stop()
    assert not process.running


def test_negative_period_rejected(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, -100, lambda p: None)


def test_stopped_tick_is_stranded_not_removed(sim):
    # The kernel cannot cancel: the posted tick stays queued, fires and
    # returns without calling back or posting a successor.
    calls = []
    process = PeriodicProcess(sim, 100, calls.append)
    process.start()
    process.stop()
    assert sim.pending_events == 1
    sim.run_until(1000)
    assert (calls, process.ticks) == ([], 0)
    assert (sim.dispatched_events, sim.pending_events) == (1, 0)


def test_restart_from_within_callback_keeps_one_train(sim):
    times = []

    def callback(process):
        times.append(sim.now)
        if len(times) == 1:
            process.start(initial_delay=30)

    PeriodicProcess(sim, 100, callback).start()
    sim.run_until(350)
    # The old train ends at its restart tick: it posts no successor, so
    # every dispatched event is a tick of the new phase.
    assert times == [100, 130, 230, 330]
    assert sim.dispatched_events == 4


def test_zero_initial_delay_ticks_at_once(sim):
    times = []
    process = PeriodicProcess(sim, 100, lambda p: times.append(sim.now))
    process.start(initial_delay=0)
    sim.run_until(0)
    assert times == [0]
    sim.run_until(250)
    assert times == [0, 100, 200]


def test_ticks_run_at_the_process_priority(sim):
    order = []
    PeriodicProcess(
        sim, 100, lambda p: order.append("sample"),
        priority=sim.PRIORITY_SAMPLE,
    ).start()
    sim.schedule(100, lambda: order.append("event"))
    PeriodicProcess(
        sim, 100, lambda p: order.append("control"),
        priority=sim.PRIORITY_CONTROL,
    ).start()
    sim.run_until(100)
    assert order == ["control", "event", "sample"]


def test_fractional_period_and_initial_delay_truncate(sim):
    times = []
    process = PeriodicProcess(sim, 100.9, lambda p: times.append(sim.now))
    process.start(initial_delay=10.7)
    sim.run_until(250)
    assert times == [10, 110, 210]


def test_jittered_ticks_repeat_for_equal_seeds():
    def tick_times(seed):
        sim = Simulator(seed=seed)
        times = []
        PeriodicProcess(
            sim, 100, lambda p: times.append(sim.now),
            jitter_rng=sim.rng.stream("jitter-test"), jitter=20,
        ).start()
        sim.run_until(3000)
        return times

    times = tick_times(7)
    assert times == tick_times(7)
    # The jitter is really drawn: the ticks leave the 100 µs grid.
    assert any(t % 100 for t in times)
