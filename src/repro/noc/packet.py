"""Packets.

Packets are task-addressed (see package docstring): ``dest_task`` is the
logical destination, ``dest_node`` the currently-resolved physical provider.
``instance`` and ``branch`` identify which fork-join graph instance and which
of its parallel branches the packet belongs to, which the sink uses to join
the fork (Figure 3 of the paper).
"""

import itertools

_packet_ids = itertools.count()


class PacketStatus:
    """Lifecycle states of a packet, set only by the network.  Each drop
    status is also the ``Network.stats`` key that counts it."""

    IN_FLIGHT = "in_flight"
    DELIVERED = "delivered"
    DROPPED_DEADLOCK = "dropped_deadlock"
    DROPPED_NO_PROVIDER = "dropped_no_provider"
    DROPPED_FAULT = "dropped_fault"

    ALL = (
        IN_FLIGHT,
        DELIVERED,
        DROPPED_DEADLOCK,
        DROPPED_NO_PROVIDER,
        DROPPED_FAULT,
    )


class Packet:
    """A NoC packet.

    Parameters
    ----------
    src_node:
        Id of the originating node.
    dest_task:
        Task id the packet must be consumed by.
    size_flits:
        Wormhole length; a packet holds each traversed link for
        ``size_flits`` flit-times.
    created_at:
        Simulation time (µs) of creation.
    instance:
        Fork-join instance key ``(source node, sequence number)``.
    branch:
        Branch index within the fork (0-based), or ``None`` for
        non-fork traffic.
    deadline:
        Optional absolute deadline (µs); used by the Foraging-for-Work
        monitors ("time since sent").
    """

    __slots__ = (
        "packet_id",
        "src_node",
        "dest_task",
        "dest_node",
        "size_flits",
        "created_at",
        "instance",
        "branch",
        "deadline",
        "hops",
        "reroutes",
        "status",
        "delivered_at",
        "payload",
        "tried",
        "corrupted",
    )

    def __init__(self, src_node, dest_task, size_flits=4, created_at=0,
                 instance=None, branch=None, deadline=None, payload=None):
        if size_flits < 1:
            raise ValueError("packet needs at least 1 flit")
        self.packet_id = next(_packet_ids)
        self.src_node = src_node
        self.dest_task = dest_task
        self.dest_node = None
        self.size_flits = size_flits
        self.created_at = created_at
        self.instance = instance
        self.branch = branch
        self.deadline = deadline
        self.hops = 0
        self.reroutes = 0
        self.status = PacketStatus.IN_FLIGHT
        self.delivered_at = None
        self.payload = payload
        #: Set when the packet crossed a corrupting link: the flits still
        #: arrive (the wire time is spent, delivery is counted) but the
        #: payload is garbage — the application must treat it as a miss.
        self.corrupted = False
        #: Providers that bounced this packet (``None`` before the first
        #: bounce); ``Network.redirect`` never sends it back to one, so a
        #: packet hunting for capacity expands outward instead of
        #: ping-ponging between two saturated neighbours.
        self.tried = None

    def latency(self):
        """End-to-end latency in µs, or ``None`` if not delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at

    def age(self, now):
        """Time since creation — the paper's "time since sent" monitor."""
        return now - self.created_at

    def is_late(self, now):
        """True when the packet has a deadline and it has lapsed."""
        return self.deadline is not None and now > self.deadline

    def __repr__(self):
        return (
            "Packet(id={}, src={}, task={}, dest={}, {} flits, {})".format(
                self.packet_id,
                self.src_node,
                self.dest_task,
                self.dest_node,
                self.size_flits,
                self.status,
            )
        )
