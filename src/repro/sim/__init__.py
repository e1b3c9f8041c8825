"""Deterministic discrete-event simulation kernel.

This package is the time substrate every other subsystem runs on.  It was
written for the Centurion reproduction but contains nothing specific to the
NoC: it provides an event queue ordered by (time, priority, sequence), a
simulation clock in integer microseconds, seeded random-number streams and
periodic processes.

Scheduling is fire-and-forget: ``Simulator.schedule`` and
``Simulator.schedule_at`` post an event and return nothing, so an event,
once posted, always fires; an owner that no longer wants it makes the
callback a no-op (see :mod:`repro.sim.engine`).

The kernel is deliberately deterministic: two simulations constructed with
the same seed and the same sequence of ``schedule`` calls produce identical
event orderings, which is what makes the 100-run quartile experiments of the
paper statistically meaningful (every run differs only through its seed).
"""

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder, TraceRecord

__all__ = [
    "Simulator",
    "PeriodicProcess",
    "RngStreams",
    "TraceRecorder",
    "TraceRecord",
]
