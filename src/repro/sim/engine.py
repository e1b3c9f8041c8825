"""Event queue and simulation loop.

The :class:`Simulator` is a classic calendar-queue discrete-event kernel:

* events are kept in a binary heap whose entries are plain
  ``(time, priority, seq, callback)`` tuples, so ties at the same
  timestamp break first by priority and then by insertion order — this
  makes runs reproducible;
* time is integer microseconds: the paper's millisecond parameters
  (task-1 period 4 ms, FFW timeout 20 ms, fault injection at 500 ms)
  are exact in it, with headroom for sub-millisecond router latencies,
  and integer timestamps leave no float tie-break surprises;
* ``run_until(horizon)`` pops and dispatches events until the queue is empty
  or the horizon is passed — it is the only dispatch loop.

Scheduling is fire-and-forget: :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` are the only ways to post an event, and
neither returns a handle, so no event can be cancelled.  An owner whose
pending event may go stale strands it instead: the callback checks the
owner's state when it fires and returns without effect (the
:class:`~repro.sim.process.PeriodicProcess` epoch, the processing
element's service epoch, the due times of the dynamics checks).

The kernel knows nothing about routers or ants; everything above it talks to
it through those two calls.

Hot-path notes
--------------
The kernel is the inner loop of every table sweep, so its design choices
are performance-motivated:

* heap entries are tuples of ints plus a trailing callback, and
  ``(time, priority, seq)`` is unique, so every sift comparison runs in
  C without calling back into Python;
* ``schedule`` and ``schedule_at`` each push inline, without calling
  one another: they are the per-hop, per-service and per-tick entry
  points;
* ``run_until`` is a single fused pop-until-horizon loop: one ``heap[0]``
  peek plus one ``heappop`` per event, with no per-event method calls.
"""

from heapq import heappop, heappush


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


class Simulator:
    """Discrete-event simulator with an integer-microsecond clock.

    Parameters
    ----------
    seed:
        Master seed for the simulation's random streams (see
        :class:`repro.sim.rng.RngStreams`).  Two simulators with equal seeds
        and equal scheduling sequences are bit-identical.
    """

    #: Default priority for ordinary events.
    PRIORITY_NORMAL = 10
    #: Priority for monitor sampling — runs after normal events at a tick.
    PRIORITY_SAMPLE = 20
    #: Priority for control-plane actions (fault injection) — runs first.
    PRIORITY_CONTROL = 0

    def __init__(self, seed=0):
        from repro.sim.rng import RngStreams

        self.now = 0
        self.seed = seed
        self.rng = RngStreams(seed)
        self._heap = []
        self._seq = 0
        self._running = False
        self._dispatched = 0

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay, callback, priority=PRIORITY_NORMAL):
        """Schedule ``callback()`` to run ``delay`` µs from now.

        ``delay`` must be non-negative; it is truncated to an integer.
        Returns ``None``: the event cannot be cancelled.
        """
        if delay < 0:
            raise SimulationError(
                "cannot schedule {} us in the past".format(delay)
            )
        time = self.now + (delay if type(delay) is int else int(delay))
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, priority, seq, callback))

    def schedule_at(self, time, callback, priority=PRIORITY_NORMAL):
        """Schedule ``callback()`` at absolute time ``time`` µs.

        ``time`` must not lie before ``now``.  Returns ``None``.
        """
        if time < self.now:
            raise SimulationError(
                "cannot schedule at t={} before now={}".format(time, self.now)
            )
        time = time if type(time) is int else int(time)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, priority, seq, callback))

    # -- execution --------------------------------------------------------

    def run_until(self, horizon):
        """Dispatch events in order until ``horizon`` µs (inclusive).

        The clock is left at ``horizon`` even if the queue drains early, so
        sampling code can rely on ``sim.now`` after the call.  Events
        scheduled exactly at the horizon are executed.
        """
        if self._running:
            raise SimulationError("run_until re-entered")
        self._running = True
        heap = self._heap
        pop = heappop
        dispatched = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                self.now = time
                entry[3]()
                dispatched += 1
        finally:
            self._running = False
            self._dispatched += dispatched
        if self.now < horizon:
            self.now = horizon
        return self._dispatched

    # -- introspection ----------------------------------------------------

    @property
    def pending_events(self):
        """Number of events currently in the queue."""
        return len(self._heap)

    @property
    def dispatched_events(self):
        """Total number of events executed so far."""
        return self._dispatched

    def __repr__(self):
        return "Simulator(now={}us, pending={}, dispatched={})".format(
            self.now, self.pending_events, self._dispatched
        )
