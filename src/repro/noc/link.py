"""Point-to-point links with wormhole channel occupancy.

A link is one direction of a full-duplex channel between two adjacent
routers (the Centurion router's input and output interfaces are independent,
so each mesh edge is two ``Link`` objects).  Wormhole switching is modelled
at packet granularity: a packet of ``n`` flits seizes the link for
``n * flit_time`` µs and later packets queue behind it, which captures the
head-of-line blocking that the intelligence models feel as congestion
without simulating individual flits.

Hot-path contract: ``busy_until`` is a public slot read directly by the
express hop engine (:mod:`repro.noc.network`) and claims are made through
:meth:`Link.transfer` parameterised by the *departure* time, never by the
caller's wall position — this is what lets an inlined hop claim the channel
with exactly the timing a scheduled hop event would have produced.
"""


class Link:
    """One direction of a mesh channel.

    Parameters
    ----------
    src, dst:
        Router/node ids of the endpoints.
    flit_time:
        µs to transfer a single flit.
    wire_latency:
        Fixed propagation µs added after the last flit leaves.
    """

    __slots__ = (
        "src",
        "dst",
        "flit_time",
        "nominal_flit_time",
        "wire_latency",
        "busy_until",
        "packets_carried",
        "flits_carried",
        "total_wait",
        "enabled",
        "corrupting",
    )

    def __init__(self, src, dst, flit_time=1, wire_latency=1):
        if flit_time < 0 or wire_latency < 0:
            raise ValueError("link timings must be non-negative")
        self.src = src
        self.dst = dst
        self.flit_time = flit_time
        #: Healthy timing, restored when a degradation recovers.
        self.nominal_flit_time = flit_time
        self.wire_latency = wire_latency
        self.busy_until = 0
        self.packets_carried = 0
        self.flits_carried = 0
        self.total_wait = 0
        self.enabled = True
        #: While set, packets claiming the channel are flagged corrupted.
        self.corrupting = False

    def queue_delay(self, now):
        """How long a packet arriving now would wait for the channel."""
        return max(0, self.busy_until - now)

    def transfer(self, packet, now):
        """Claim the channel for ``packet`` starting at ``now``.

        Returns the absolute time at which the packet is available at the
        downstream router.  Updates occupancy and statistics.
        """
        if not self.enabled:
            raise RuntimeError(
                "transfer on disabled link {}->{}".format(self.src, self.dst)
            )
        start = max(now, self.busy_until)
        occupancy = packet.size_flits * self.flit_time
        self.busy_until = start + occupancy
        self.packets_carried += 1
        self.flits_carried += packet.size_flits
        self.total_wait += start - now
        return start + occupancy + self.wire_latency

    def fail(self):
        """Disable the channel (fault injection); transfers now raise."""
        self.enabled = False

    def recover(self):
        """Re-enable a failed channel.

        Occupancy is kept: ``busy_until`` timestamps in the past are
        harmless (``transfer`` clamps to ``now``) and a future claim from
        before the outage still models a packet owning the wire.
        """
        self.enabled = True

    def degrade(self, factor):
        """Stretch the channel's flit time by ``factor`` (partial fault).

        The degraded timing is quantised to the integer microsecond
        clock (floored at 1 µs) so hop arrival times stay integers and
        the express hop engine's inline clock advance remains
        bit-identical to event scheduling.  Claims already holding the
        wire are unaffected; the slower timing applies from the next
        :meth:`transfer` on.  The factor is always applied to the
        *nominal* timing — calls do not stack; the link is a dumb
        actuator and the
        :class:`~repro.platform.faults.FaultInjector` arbitrates
        overlapping degrade claims (worst active factor governs).
        """
        if not factor > 1:
            raise ValueError("degrade factor must be > 1")
        self.flit_time = max(1, int(round(self.nominal_flit_time * factor)))

    def restore_timing(self):
        """Undo a degradation: flit time returns to the nominal value."""
        self.flit_time = self.nominal_flit_time

    @property
    def degraded(self):
        """True while the channel runs slower than its nominal timing."""
        return self.flit_time != self.nominal_flit_time

    def utilisation(self, now):
        """Fraction of time spent transferring, measured up to ``now``."""
        if now <= 0:
            return 0.0
        # Approximate: every carried flit is priced at the *current* flit
        # time, which differs from the time it was carried at once
        # degrade() or restore_timing() has changed it.
        return min(1.0, self.flits_carried * self.flit_time / now)

    def __repr__(self):
        return "Link({}->{}, busy_until={}, carried={})".format(
            self.src, self.dst, self.busy_until, self.packets_carried
        )
