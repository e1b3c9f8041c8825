"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import EventQueue, SimulationError


class TestEventQueue:
    """Ordering, tombstones and compaction, observed through the order in
    which ``run_until`` (the kernel's only dispatch loop) runs events."""

    def test_dispatches_in_time_order(self, sim):
        order = []
        for time, label in ((30, "c"), (10, "a"), (20, "b")):
            sim.schedule_at(time, lambda label=label: order.append(label))
        sim.run_until(100)
        assert order == ["a", "b", "c"]

    def test_same_time_breaks_ties_by_priority(self, sim):
        order = []
        sim.schedule(10, lambda: order.append("low"), priority=20)
        sim.schedule(10, lambda: order.append("high"), priority=0)
        sim.run_until(10)
        assert order == ["high", "low"]

    def test_same_time_same_priority_is_fifo(self, sim):
        order = []
        sim.schedule(10, lambda: order.append("first"))
        sim.post(10, lambda: order.append("second"))
        sim.schedule_at(10, lambda: order.append("third"))
        sim.run_until(10)
        assert order == ["first", "second", "third"]

    def test_cancelled_events_are_skipped(self, sim):
        order = []
        event = sim.schedule(10, lambda: order.append("dead"))
        sim.schedule(20, lambda: order.append("survivor"))
        event.cancel()
        sim.run_until(100)
        assert order == ["survivor"]
        assert sim.dispatched_events == 1
        assert sim._queue._tombstones == 0

    def test_empty_queue_dispatches_nothing(self, sim):
        assert sim.run_until(50) == 0
        assert sim.now == 50

    def test_len_counts_entries_including_tombstones(self):
        queue = EventQueue()
        event = queue.push(1, 10, None)
        queue.push(2, 10, None)
        event.cancel()
        assert len(queue) == 2

    def test_compaction_reclaims_tombstone_heavy_heap(self, sim):
        order = []
        doomed = [
            sim.schedule(t, lambda: order.append("dead"))
            for t in range(2 * EventQueue.COMPACT_MIN_TOMBSTONES)
        ]
        for t in range(5):
            sim.schedule(10_000 + t, lambda t=t: order.append(t))
        for event in doomed:
            event.cancel()
        # The cancellation burst crossed the threshold on a mostly-dead
        # heap, so a rebuild fired mid-burst: the heap stays bounded well
        # below the full push count instead of accumulating every corpse.
        queue = sim._queue
        assert len(queue) < len(doomed) + 5
        assert len(queue) <= 2 * (queue._tombstones + 5)
        sim.run_until(20_000)
        assert order == [0, 1, 2, 3, 4]
        assert len(queue) == queue._tombstones == 0

    def test_compaction_waits_while_heap_is_mostly_live(self, sim):
        order = []
        doomed = [
            sim.schedule(t, lambda: order.append("dead"))
            for t in range(EventQueue.COMPACT_MIN_TOMBSTONES)
        ]
        live = 3 * EventQueue.COMPACT_MIN_TOMBSTONES
        for t in range(live):
            sim.schedule(10_000 + t, lambda t=t: order.append(t))
        for event in doomed:
            event.cancel()
        # Tombstones are above the count threshold but under half the
        # heap: the rebuild is deferred, entries stay put.
        assert len(sim._queue) == len(doomed) + live
        sim.run_until(10_000)
        assert order == [0]

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1, 10, None)
        event.cancel()
        event.cancel()
        assert queue._tombstones == 1


class TestSimulator:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_schedule_advances_clock_to_event_time(self, sim):
        seen = []
        sim.schedule(50, lambda: seen.append(sim.now))
        sim.run_until(100)
        assert seen == [50]

    def test_clock_lands_on_horizon_when_queue_drains(self, sim):
        sim.schedule(10, lambda: None)
        sim.run_until(500)
        assert sim.now == 500

    def test_events_at_horizon_execute(self, sim):
        seen = []
        sim.schedule(100, lambda: seen.append("x"))
        sim.run_until(100)
        assert seen == ["x"]

    def test_events_beyond_horizon_do_not_execute(self, sim):
        seen = []
        sim.schedule(101, lambda: seen.append("x"))
        sim.run_until(100)
        assert seen == []
        # ... but remain queued for a later run.
        sim.run_until(200)
        assert seen == ["x"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_cancel_prevents_execution(self, sim):
        seen = []
        event = sim.schedule(10, lambda: seen.append("x"))
        event.cancel()
        sim.run_until(100)
        assert seen == []

    def test_events_can_schedule_more_events(self, sim):
        seen = []

        def first():
            sim.schedule(5, lambda: seen.append(sim.now))

        sim.schedule(10, first)
        sim.run_until(100)
        assert seen == [15]

    def test_priority_orders_same_tick_events(self, sim):
        order = []
        sim.schedule(10, lambda: order.append("normal"),
                     priority=sim.PRIORITY_NORMAL)
        sim.schedule(10, lambda: order.append("control"),
                     priority=sim.PRIORITY_CONTROL)
        sim.schedule(10, lambda: order.append("sample"),
                     priority=sim.PRIORITY_SAMPLE)
        sim.run_until(10)
        assert order == ["control", "normal", "sample"]

    def test_dispatched_events_counted(self, sim):
        for delay in (1, 2, 3):
            sim.schedule(delay, lambda: None)
        sim.run_until(10)
        assert sim.dispatched_events == 3

    def test_run_until_is_not_reentrant(self, sim):
        def nested():
            sim.run_until(50)

        sim.schedule(10, nested)
        with pytest.raises(SimulationError):
            sim.run_until(20)

    def test_repeated_run_until_continues(self, sim):
        seen = []
        sim.schedule(10, lambda: seen.append(1))
        sim.schedule(30, lambda: seen.append(2))
        sim.run_until(20)
        assert seen == [1]
        sim.run_until(40)
        assert seen == [1, 2]

    def test_run_until_steps_one_event_at_a_time(self, sim):
        # The return value is the running dispatch total, so a caller can
        # step event by event with successive horizons.
        seen = []
        sim.schedule(5, lambda: seen.append("a"))
        sim.schedule(6, lambda: seen.append("b"))
        assert sim.run_until(5) == 1
        assert seen == ["a"]
        assert sim.run_until(6) == 2
        assert seen == ["a", "b"]


class TestBulkAndFastScheduling:
    def test_schedule_many_at_preserves_list_order_on_ties(self, sim):
        order = []
        sim.schedule_many_at(
            [(5, lambda i=i: order.append(i)) for i in range(6)]
        )
        sim.run_until(10)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_schedule_many_at_interleaves_with_single_schedules(self, sim):
        order = []
        sim.schedule(5, lambda: order.append("single-first"))
        sim.schedule_many_at(
            [
                (5, lambda: order.append("bulk-a")),
                (3, lambda: order.append("early")),
                (5, lambda: order.append("bulk-b")),
            ]
        )
        sim.schedule(5, lambda: order.append("single-last"))
        sim.run_until(10)
        assert order == [
            "early", "single-first", "bulk-a", "bulk-b", "single-last",
        ]

    def test_schedule_many_at_large_batch_heapify_path(self, sim):
        # Batch much larger than the existing heap exercises the O(n)
        # heapify branch; dispatch order must still be (time, seq).
        seen = []
        sim.schedule(2, lambda: seen.append(-1))
        pairs = [
            (1000 - i, lambda i=i: seen.append(i)) for i in range(200)
        ]
        handles = sim.schedule_many_at(pairs)
        assert len(handles) == 200
        sim.run_until(2000)
        assert seen == [-1] + list(range(199, -1, -1))

    def test_schedule_many_at_handles_cancel(self, sim):
        seen = []
        handles = sim.schedule_many_at(
            [(4, lambda: seen.append("a")), (5, lambda: seen.append("b"))]
        )
        handles[1].cancel()
        sim.run_until(10)
        assert seen == ["a"]

    def test_schedule_many_at_absolute_times(self, sim):
        order = []
        sim.schedule_many_at(
            [(7, lambda: order.append("b")), (3, lambda: order.append("a"))]
        )
        sim.run_until(10)
        assert order == ["a", "b"]

    def test_schedule_many_at_rejects_past(self, sim):
        sim.schedule(10, lambda: None)
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.schedule_many_at([(5, lambda: None)])

    def test_schedule_many_at_rejects_the_whole_batch(self, sim):
        # One past entry anywhere in the batch refuses all of it: the
        # times are checked before anything reaches the heap.
        seen = []
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.schedule_many_at(
                [(15, lambda: seen.append("early")), (5, lambda: None)]
            )
        assert sim.pending_events == 0
        sim.run_until(100)
        assert seen == []

    def test_post_fires_without_handle(self, sim):
        seen = []
        assert sim.post(5, lambda: seen.append(sim.now)) is None
        sim.run_until(10)
        assert seen == [5]

    def test_post_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.post(-1, lambda: None)


class TestPhantomTombstones:
    """Regression: cancelling an already-dispatched event is a no-op.

    Before the fix, ``Event.cancel()`` after dispatch still incremented
    ``EventQueue._tombstones`` (the handle kept its queue link), so the
    counter drifted above the number of dead entries actually in the heap
    and later real cancels triggered spurious O(n) compactions of
    mostly-live heaps.  ``run_until`` now severs the link as each entry
    leaves the heap, making the counter exact: it always equals the live
    tombstone population.
    """

    def test_cancel_after_run_until_dispatch_is_a_counter_noop(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        handles = [sim.schedule(t, lambda: None) for t in range(100)]
        sim.run_until(200)
        for handle in handles:
            handle.cancel()
        assert sim._queue._tombstones == 0

    def test_counter_tracks_live_tombstones_exactly(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        queue = sim._queue
        dispatched = [sim.schedule(t, lambda: None) for t in range(10)]
        pending = [sim.schedule(500 + t, lambda: None) for t in range(10)]
        sim.run_until(100)
        for handle in dispatched:
            handle.cancel()  # late cancels: must not count
        for handle in pending[:4]:
            handle.cancel()  # real tombstones in the heap
        live = sum(
            1 for entry in queue._heap
            if entry[3] is not None and entry[3].cancelled
        )
        assert queue._tombstones == live == 4

    def test_run_until_tombstone_skip_severs_the_link(self, sim):
        dead = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        dead.cancel()
        sim.run_until(100)
        dead.cancel()
        dead.cancelled = False
        dead.cancel()  # even a forced re-cancel cannot reach the queue
        assert sim._queue._tombstones == 0

    def test_no_spurious_compaction_from_phantom_counts(self):
        """100 late cancels must not push a live heap into compaction."""
        from repro.sim.engine import Simulator

        sim = Simulator()
        early = [sim.schedule(t, lambda: None) for t in range(100)]
        sim.run_until(150)
        live = [sim.schedule(1000 + t, lambda: None) for t in range(100)]
        for handle in early:
            handle.cancel()
        # One real cancel: with phantom counts this used to cross the
        # 64-tombstone threshold and rebuild a 99%-live heap.
        live[0].cancel()
        queue = sim._queue
        assert queue._tombstones == 1
        assert len(queue._heap) == 100
