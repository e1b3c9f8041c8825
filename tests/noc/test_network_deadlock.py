"""Deadlock recovery and drop-notification behaviour of the network."""

import pytest

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketStatus
from repro.noc.topology import MeshTopology


class DropObserver:
    def __init__(self):
        self.dropped = []

    def on_packet_dropped(self, router, packet):
        self.dropped.append((router.node_id, packet.dest_task))


def test_deadlock_recovery_drops_blocked_packet(sim):
    """A packet facing a channel wait beyond the limit is dropped."""
    net = Network(
        sim, topology=MeshTopology(4, 1), deadlock_wait_limit=100
    )
    net.set_deliver_handler(lambda pkt, node: None)
    net.directory.set_task(3, 2)
    # Saturate the first link far beyond the wait limit.
    link = net.link(0, 1)
    blocker = Packet(0, dest_task=2, size_flits=500)
    link.transfer(blocker, now=0)
    victim = Packet(0, dest_task=2)
    net.send(victim, 0)
    assert victim.status == PacketStatus.DROPPED_DEADLOCK
    assert net.deadlock.drops == 1
    assert net.stats["dropped_deadlock"] == 1


@pytest.mark.parametrize(
    "limit, wait, dropped",
    [
        (100, 0, False),
        (100, 100, False),
        (100, 101, True),
        (None, 10**9, False),
    ],
    ids=["no-wait", "wait-equals-limit", "limit-plus-one", "no-limit"],
)
def test_channel_wait_bound(sim, limit, wait, dropped):
    """A wait equal to the limit is tolerated; one more µs drops."""
    net = Network(
        sim, topology=MeshTopology(3, 1), deadlock_wait_limit=limit
    )
    net.set_deliver_handler(lambda pkt, node: None)
    net.directory.set_task(2, 2)
    net.link(0, 1).busy_until = sim.now + wait
    victim = Packet(0, dest_task=2)
    net.send(victim, 0)
    assert (victim.status == PacketStatus.DROPPED_DEADLOCK) is dropped
    assert net.deadlock.drops == int(dropped)
    assert net.stats["dropped_deadlock"] == int(dropped)
    assert sim.pending_events == int(not dropped)


def test_waits_under_limit_tolerated(sim):
    net = Network(
        sim, topology=MeshTopology(4, 1), deadlock_wait_limit=10_000
    )
    delivered = []
    net.set_deliver_handler(lambda pkt, node: delivered.append(node))
    net.directory.set_task(3, 2)
    link = net.link(0, 1)
    link.transfer(Packet(0, dest_task=2, size_flits=500), now=0)
    victim = Packet(0, dest_task=2)
    net.send(victim, 0)
    sim.run_until(50_000)
    assert victim.status == PacketStatus.DELIVERED


def test_drop_notifies_local_router_observer(sim):
    net = Network(sim, topology=MeshTopology(4, 1))
    observer = DropObserver()
    net.router(0).add_observer(observer)
    packet = Packet(0, dest_task=9)  # no provider anywhere
    net.send(packet, 0)
    assert observer.dropped == [(0, 9)]
    assert net.router(0).packets_dropped_here == 1


def test_drop_at_failed_router_does_not_notify(sim):
    net = Network(sim, topology=MeshTopology(4, 1))
    observer = DropObserver()
    net.router(0).add_observer(observer)
    net.fail_node(0)
    packet = Packet(0, dest_task=9)
    net.send(packet, 0)
    assert packet.status == PacketStatus.DROPPED_FAULT
    assert observer.dropped == []


def test_redirect_exhaustion_notifies_at_origin(sim):
    net = Network(sim, topology=MeshTopology(4, 1), max_reroutes=2)
    observer = DropObserver()
    net.router(1).add_observer(observer)
    net.directory.set_task(3, 2)
    packet = Packet(0, dest_task=2)
    packet.reroutes = 3
    assert not net.redirect(packet, 1)
    assert observer.dropped == [(1, 2)]
