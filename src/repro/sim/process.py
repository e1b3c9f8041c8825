"""Recurring processes on top of the event kernel.

:class:`PeriodicProcess` models things that tick at a fixed period — the
task-1 packet sources (every 4 ms), the shared AIM timer tick of
:mod:`repro.core.aim` (every 2 ms), the metric sampler (every 10 ms).  It
reschedules itself after each tick and can be stopped and restarted;
restarting re-aligns the phase to "now + period".

Each ``start()`` creates one closure that re-posts itself through
:meth:`repro.sim.engine.Simulator.schedule`.  The kernel cannot cancel an
event, so stopping is an epoch bump that strands the in-flight tick: it
fires and returns without effect.
"""


class PeriodicProcess:
    """Run ``callback(process)`` every ``period`` µs until stopped.

    Parameters
    ----------
    sim:
        The :class:`repro.sim.engine.Simulator` supplying time.
    period:
        Tick period in µs; must be positive.
    callback:
        Called with the process instance at each tick.
    priority:
        Event priority for the ticks.
    jitter_rng, jitter:
        Optional uniform phase jitter in µs added to every tick, drawn from
        ``jitter_rng``; used by packet sources so that 25 task-1 nodes do not
        all emit in the same microsecond.
    """

    def __init__(self, sim, period, callback, priority=None, jitter_rng=None,
                 jitter=0):
        if period <= 0:
            raise ValueError("period must be positive, got {}".format(period))
        self.sim = sim
        self.period = int(period)
        self.callback = callback
        self.priority = (
            sim.PRIORITY_NORMAL if priority is None else priority
        )
        self.jitter_rng = jitter_rng
        self.jitter = int(jitter)
        self._jittered = jitter_rng is not None and self.jitter > 0
        self.ticks = 0
        #: Tick-train epoch: every start/stop invalidates the previous
        #: train, so a stale posted tick returns without effect.
        self._epoch = 0
        self._stopped = True

    # -- control -----------------------------------------------------------

    def start(self, initial_delay=None):
        """Begin ticking; first tick after ``initial_delay`` (default period)."""
        self._stopped = False
        self._epoch = epoch = self._epoch + 1
        sim = self.sim
        priority = self.priority

        def tick():
            if epoch != self._epoch:
                return  # stopped or restarted since this tick was posted
            self.ticks += 1
            self.callback(self)
            if epoch != self._epoch:
                return  # the callback stopped or restarted us
            delay = self.period
            if self._jittered:
                delay += self.jitter_rng.randrange(0, self.jitter + 1)
            sim.schedule(delay, tick, priority)

        delay = self.period if initial_delay is None else int(initial_delay)
        sim.schedule(delay + self._draw_jitter(), tick, priority)
        return self

    def stop(self):
        """Invalidate any pending tick; safe to call repeatedly."""
        self._stopped = True
        self._epoch += 1

    @property
    def running(self):
        return not self._stopped

    # -- internals ----------------------------------------------------------

    def _draw_jitter(self):
        if not self._jittered:
            return 0
        return self.jitter_rng.randrange(0, self.jitter + 1)
