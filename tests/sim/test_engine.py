"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestDispatchOrder:
    """Ordering, observed through the order in which ``run_until`` (the
    kernel's only dispatch loop) runs events."""

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
        sim.schedule(10, lambda: order.append("second"))
        sim.schedule_at(10, lambda: order.append("third"))
        sim.run_until(10)
        assert order == ["first", "second", "third"]

    def test_empty_queue_dispatches_nothing(self, sim):
        assert sim.run_until(50) == 0
        assert sim.now == 50


PRIORITIES = (
    Simulator.PRIORITY_CONTROL,
    Simulator.PRIORITY_NORMAL,
    Simulator.PRIORITY_SAMPLE,
)

#: ``(absolute, delay, priority)``: one ``schedule_at``/``schedule`` call.
child_posts = st.tuples(
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(PRIORITIES),
)
#: A top-level post at time 0, plus the children its callback schedules.
posts = st.tuples(
    st.booleans(),
    st.integers(min_value=0, max_value=6),
    st.sampled_from(PRIORITIES),
    st.lists(child_posts, max_size=2),
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan=st.lists(posts, max_size=25),
    horizons=st.lists(
        st.integers(min_value=0, max_value=12), min_size=1, max_size=4
    ),
)
def test_dispatch_order_is_time_priority_then_scheduling_order(
    plan, horizons
):
    """After every horizon, exactly the events due by it have run, in
    (time, priority, scheduling order), and the rest are still pending."""
    sim = Simulator()
    scheduled = []  # (time, priority, scheduling order) of every post
    dispatched = []

    def post(absolute, delay, priority, children):
        key = (sim.now + delay, priority, len(scheduled))
        scheduled.append(key)

        def fire():
            dispatched.append(key)
            for child_absolute, child_delay, child_priority in children:
                if child_delay == 0:
                    # A same-time child may not sort before its parent,
                    # or the dispatch order could not be one sorted run.
                    child_priority = max(child_priority, priority)
                post(child_absolute, child_delay, child_priority, ())

        if absolute:
            sim.schedule_at(key[0], fire, priority)
        else:
            sim.schedule(delay, fire, priority)

    for absolute, delay, priority, children in plan:
        post(absolute, delay, priority, children)
    for horizon in sorted(horizons):
        sim.run_until(horizon)
        assert dispatched == sorted(k for k in scheduled if k[0] <= horizon)
        assert sim.pending_events == len(scheduled) - len(dispatched)
        assert sim.dispatched_events == len(dispatched)
        assert sim.now == horizon


class TestSimulator:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_scheduling_returns_no_handle(self, sim):
        assert sim.schedule(5, lambda: None) is None
        assert sim.schedule_at(5, lambda: None) is None

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

    def test_failing_callback_propagates_and_leaves_kernel_usable(self, sim):
        seen = []

        def boom():
            raise ValueError("callback failed")

        sim.schedule(5, lambda: seen.append(sim.now))
        sim.schedule(10, boom)
        sim.schedule(15, lambda: seen.append(sim.now))
        with pytest.raises(ValueError):
            sim.run_until(20)
        # The clock stops at the failing event, which is consumed but not
        # counted; the events dispatched before it are.
        assert (sim.now, sim.dispatched_events, sim.pending_events) == (
            10, 1, 1,
        )
        # The loop is not left marked as running.
        assert sim.run_until(20) == 2
        assert seen == [5, 15]

    def test_horizon_behind_the_clock_does_not_rewind_it(self, sim):
        sim.run_until(100)
        assert sim.run_until(50) == 0
        assert sim.now == 100

    def test_delays_count_from_the_clock_after_an_idle_horizon(self, sim):
        seen = []
        sim.run_until(100)
        sim.schedule(5, lambda: seen.append(("delay", sim.now)))
        sim.schedule_at(105, lambda: seen.append(("absolute", sim.now)))
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)
        sim.run_until(200)
        assert seen == [("delay", 105), ("absolute", 105)]

    def test_pending_events_tracks_posts_and_dispatches(self, sim):
        assert sim.pending_events == 0
        for delay in (10, 20, 30):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 3
        sim.run_until(20)
        assert sim.pending_events == 1
        sim.run_until(30)
        assert sim.pending_events == 0

    def test_repr_reports_clock_and_counts(self, sim):
        sim.schedule(5, lambda: None)
        sim.schedule(50, lambda: None)
        sim.run_until(10)
        assert repr(sim) == "Simulator(now=10us, pending=1, dispatched=1)"


@pytest.fixture(params=["schedule", "schedule_at"])
def post(request):
    """One of the two scheduling calls, as ``post(sim, time, callback,
    priority)`` with ``time`` absolute.  Their bodies are separate (each
    does its own past-time check, int coercion and push), so every
    contract of :class:`TestSchedulingCalls` is checked on both."""
    if request.param == "schedule":
        def post(sim, time, callback, priority=Simulator.PRIORITY_NORMAL):
            return sim.schedule(time - sim.now, callback, priority)
    else:
        def post(sim, time, callback, priority=Simulator.PRIORITY_NORMAL):
            return sim.schedule_at(time, callback, priority)
    return post


class TestSchedulingCalls:
    def test_fractional_time_truncates_to_whole_microseconds(self, sim, post):
        seen = []
        sim.run_until(10)
        post(sim, 12.9, lambda: seen.append(sim.now))
        sim.run_until(20)
        assert seen == [12]
        assert type(seen[0]) is int

    def test_fractional_past_time_rejected(self, sim, post):
        # The past-time check runs before truncation: half a microsecond
        # early is still in the past.
        sim.run_until(10)
        with pytest.raises(SimulationError):
            post(sim, 9.5, lambda: None)

    def test_current_time_is_not_the_past(self, sim, post):
        seen = []
        sim.run_until(10)
        post(sim, 10, lambda: seen.append(sim.now))
        sim.run_until(10)
        assert seen == [10]

    def test_rejected_post_leaves_queue_untouched(self, sim, post):
        seen = []
        sim.run_until(10)
        post(sim, 20, lambda: seen.append(sim.now))
        with pytest.raises(SimulationError):
            post(sim, 9, lambda: seen.append("rejected"))
        assert sim.pending_events == 1
        sim.run_until(30)
        assert seen == [20]
        assert sim.dispatched_events == 1

    def test_same_time_post_from_a_callback_runs_in_the_same_run(
        self, sim, post
    ):
        order = []

        def parent():
            order.append(("parent", sim.now))
            post(sim, sim.now, lambda: order.append(("child", sim.now)))

        sim.schedule(10, parent)
        sim.schedule(11, lambda: order.append(("later", sim.now)))
        sim.run_until(10)
        assert order == [("parent", 10), ("child", 10)]
        assert sim.pending_events == 1

    def test_post_from_a_callback_past_the_horizon_waits(self, sim, post):
        seen = []
        sim.schedule(
            10, lambda: post(sim, 15, lambda: seen.append(sim.now))
        )
        sim.run_until(12)
        assert (seen, sim.pending_events) == ([], 1)
        sim.run_until(15)
        assert seen == [15]

    def test_priority_argument_breaks_ties(self, sim, post):
        order = []
        for label, priority in (
            ("sample", Simulator.PRIORITY_SAMPLE),
            ("normal", Simulator.PRIORITY_NORMAL),
            ("control", Simulator.PRIORITY_CONTROL),
        ):
            post(sim, 10, lambda label=label: order.append(label), priority)
        sim.run_until(10)
        assert order == ["control", "normal", "sample"]

    def test_many_ties_run_in_call_order(self, sim, post):
        # Callbacks are not orderable; ``(time, priority, seq)`` is unique,
        # so the heap never has to compare them.
        order = []
        for index in range(50):
            post(sim, 10, lambda index=index: order.append(index))
        sim.run_until(10)
        assert order == list(range(50))

    def test_each_event_runs_exactly_once(self, sim, post):
        seen = []
        post(sim, 5, lambda: seen.append(sim.now))
        sim.run_until(5)
        sim.run_until(5)
        sim.run_until(100)
        assert seen == [5]
        assert sim.dispatched_events == 1
