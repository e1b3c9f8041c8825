"""Event queue and simulation loop.

The :class:`Simulator` is a classic calendar-queue discrete-event kernel:

* events are kept in a binary heap whose entries are plain
  ``(time, priority, seq, handle, callback)`` tuples, so ties at the same
  timestamp break first by priority and then by insertion order — this
  makes runs reproducible;
* ``run_until(horizon)`` pops and dispatches events until the queue is empty
  or the horizon is passed — it is the only dispatch loop;
* cancelling is done by tombstoning (the heap entry stays, the handle is
  marked dead), which is O(1) and the standard trick from the heapq docs;
  ``run_until`` is the only place that skips the dead entries.

The kernel knows nothing about routers or ants; everything above it talks to
it through :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.

Hot-path notes
--------------
The kernel is the inner loop of every table sweep, so its design choices
are performance-motivated:

* heap entries are tuples of ints (plus trailing non-compared payload), so
  every sift comparison runs in C without calling back into Python;
* ``run_until`` is a single fused pop-until-horizon loop: one ``heap[0]``
  peek plus one ``heappop`` per event, with no per-event method calls into
  the queue object;
* :meth:`Simulator.post` / :meth:`Simulator.post_at` schedule fire-and-
  forget callbacks without allocating an :class:`Event` handle — used by
  the NoC hop engine and the PE service loop, the two hottest schedulers;
* :meth:`Simulator.schedule_many_at` bulk-inserts a batch of callbacks,
  switching from repeated pushes to an O(n) heapify when the batch is
  large relative to the queue;
* cancellations are counted, and the queue compacts itself (filters dead
  entries and re-heapifies) once tombstones dominate, so cancel-heavy
  users of the public ``Event.cancel`` API cannot bloat the heap (the
  in-tree hot paths avoid cancellation entirely — PeriodicProcess strands
  stale ticks behind an epoch instead — so this is a robustness bound for
  extension code, not a steady-state cost); the handle's queue link is
  severed when its entry leaves the heap, so cancelling an
  already-dispatched event is a no-op and the tombstone counter stays
  exact (it counts dead entries actually present in the heap, never
  phantoms).
"""

from heapq import heapify, heappop, heappush

#: Allocation shortcut for the inlined handle construction in
#: :meth:`Simulator.schedule` (skips the ``Event.__init__`` call).
_new_event = object.__new__


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


class Event:
    """Handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule`; user code keeps
    them only if it may need to :meth:`cancel` the event later (e.g. the
    Foraging-for-Work timeout that is reset whenever a packet is sunk
    locally).

    The handle is *not* the heap entry: the queue orders plain tuples and
    only carries the handle as payload, so comparisons never enter Python.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "_queue")

    def __init__(self, time, priority, seq, callback, queue):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def cancel(self):
        """Mark the event dead; the kernel will skip it when popped.

        Cancellation is the cold path, so it also carries the compaction
        trigger: once tombstones accumulate past the threshold the queue
        rebuilds itself, keeping cancel-heavy callers from bloating the
        heap without taxing every push.
        """
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                tombstones = queue._tombstones + 1
                queue._tombstones = tombstones
                if tombstones >= queue.COMPACT_MIN_TOMBSTONES:
                    queue._compact()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t={}, prio={}, seq={}, {})".format(
            self.time, self.priority, self.seq, state
        )


class EventQueue:
    """Binary-heap event queue with deterministic tie-breaking.

    Entries are ``(time, priority, seq, handle, callback)`` tuples; the
    ``handle`` slot is ``None`` for fire-and-forget callbacks scheduled
    through :meth:`Simulator.post` / :meth:`Simulator.post_at`.
    """

    #: Compact only once at least this many tombstones have accumulated.
    COMPACT_MIN_TOMBSTONES = 64

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._tombstones = 0

    def __len__(self):
        return len(self._heap)

    def push(self, time, priority, callback):
        """Insert a callback and return its :class:`Event` handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, self)
        heappush(self._heap, (time, priority, seq, event, callback))
        return event

    def push_many(self, entries, priority):
        """Bulk-insert ``(time, callback)`` pairs; returns their handles.

        Handles are created in iteration order, so same-time entries keep
        their list order (FIFO), exactly as repeated :meth:`push` calls
        would.  Large batches are appended and re-heapified in O(n)
        instead of paying O(log n) per push.
        """
        heap = self._heap
        handles = []
        seq = self._seq
        batch = []
        for time, callback in entries:
            event = Event(time, priority, seq, callback, self)
            handles.append(event)
            batch.append((time, priority, seq, event, callback))
            seq += 1
        self._seq = seq
        if len(batch) * 8 >= len(heap):
            heap.extend(batch)
            heapify(heap)
        else:
            for entry in batch:
                heappush(heap, entry)
        return handles

    def _compact(self):
        """Drop tombstoned entries and restore the heap invariant.

        The cancellation counter is exact — :meth:`Simulator.run_until`
        severs the handle's queue link as the entry leaves the heap, so
        cancelling an already-dispatched event is a no-op and the counter
        only ever counts dead entries actually present in the heap.  After
        compaction the heap holds live entries only and the counter is
        zero.
        """
        heap = self._heap
        if len(heap) >= 2 * self._tombstones:
            # Mostly-live heap: a rebuild would not reclaim much yet.
            return
        heap[:] = [
            entry
            for entry in heap
            if entry[3] is None or not entry[3].cancelled
        ]
        heapify(heap)
        self._tombstones = 0


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
        self._queue = EventQueue()
        self._running = False
        self._dispatched = 0

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay, callback, priority=PRIORITY_NORMAL):
        """Schedule ``callback()`` to run ``delay`` µs from now.

        ``delay`` must be a non-negative integer.  Returns the event handle.
        """
        if delay < 0:
            raise SimulationError(
                "cannot schedule {} us in the past".format(delay)
            )
        # Inlined EventQueue.push — this is the hottest kernel entry
        # point, so the handle is built without the __init__ call.
        queue = self._queue
        time = self.now + (delay if type(delay) is int else int(delay))
        seq = queue._seq
        queue._seq = seq + 1
        event = _new_event(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        event._queue = queue
        heappush(queue._heap, (time, priority, seq, event, callback))
        return event

    def schedule_at(self, time, callback, priority=PRIORITY_NORMAL):
        """Schedule ``callback()`` at absolute time ``time`` µs."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at t={} before now={}".format(time, self.now)
            )
        return self._queue.push(int(time), priority, callback)

    def post(self, delay, callback, priority=PRIORITY_NORMAL):
        """Fire-and-forget :meth:`schedule`: no handle, no cancellation.

        Skips the :class:`Event` allocation, which measurably matters on
        the per-hop and per-service hot paths.  Returns ``None``.
        """
        if delay < 0:
            raise SimulationError(
                "cannot schedule {} us in the past".format(delay)
            )
        queue = self._queue
        time = self.now + (delay if type(delay) is int else int(delay))
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (time, priority, seq, None, callback))

    def post_at(self, time, callback, priority=PRIORITY_NORMAL):
        """Fire-and-forget :meth:`schedule_at`; returns ``None``."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at t={} before now={}".format(time, self.now)
            )
        queue = self._queue
        time = time if type(time) is int else int(time)
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (time, priority, seq, None, callback))

    def schedule_many_at(self, pairs, priority=PRIORITY_NORMAL):
        """Bulk-schedule ``(time, callback)`` pairs at absolute times.

        Equivalent to ``[schedule_at(t, cb) for t, cb in pairs]`` —
        same-time entries dispatch in list order — but inserts the whole
        batch at once (heapify for large batches).  Multicast workload
        generation uses it to inject the sibling first hops of one fork
        instance.  Returns the handles.
        """
        now = self.now
        entries = []
        for time, callback in pairs:
            if time < now:
                raise SimulationError(
                    "cannot schedule at t={} before now={}".format(time, now)
                )
            entries.append((int(time), callback))
        return self._queue.push_many(entries, priority)

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
        queue = self._queue
        heap = queue._heap
        pop = heappop
        dispatched = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                handle = entry[3]
                if handle is not None:
                    handle._queue = None
                    if handle.cancelled:
                        queue._tombstones -= 1
                        continue
                self.now = time
                entry[4]()
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
        """Number of events currently in the queue (including tombstones)."""
        return len(self._queue)

    @property
    def dispatched_events(self):
        """Total number of events executed so far."""
        return self._dispatched

    def __repr__(self):
        return "Simulator(now={}us, pending={}, dispatched={})".format(
            self.now, self.pending_events, self._dispatched
        )
