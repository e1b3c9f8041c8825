"""The network's frozen counting rules, one test per rule.

``Network.stats`` is hashed into every stored record, so how each
provider-resolution path counts is frozen (see the ``Network``
docstring).  Every test here reads the same five things: ``stats["sent"]``,
``stats["reroutes"]``, ``packet.reroutes``, the drop counters, and which
routers' observers heard a drop (``RecordingObserver.dropped``).
"""

import pytest

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketStatus
from repro.noc.topology import MeshTopology
from repro.node.processor import ProcessingElement

#: The PEs' bounce hold in µs.
HOLD_US = 750


class _Sink:
    """Application stub: nothing generates, services take 50 µs and emit
    nothing."""

    def generation_period(self, task_id):
        return None

    def service_time(self, task_id):
        return 50

    def packets_after_execution(self, pe, packet):
        return []


@pytest.fixture
def mesh(sim, recording_observer):
    """A 4x4 network with a PE (buffer of 2) on every node and one
    recording observer on every router."""
    net = Network(sim, topology=MeshTopology(4, 4))
    pes = {
        node: ProcessingElement(
            sim, node, net, app=_Sink(), queue_capacity=2,
            service_jitter=0.0, overflow_hold_us=HOLD_US,
        )
        for node in net.topology.node_ids()
    }
    net.set_deliver_handler(lambda packet, node: pes[node].receive(packet))
    for router in net.routers.values():
        router.add_observer(recording_observer)
    return net, pes, recording_observer


def _counts(net, packet, observer):
    drops = {
        key: value for key, value in net.stats.items()
        if key.startswith("dropped") and value
    }
    return (
        net.stats["sent"], net.stats["reroutes"], packet.reroutes,
        packet.status, drops, observer.dropped,
    )


def _fill(pe, task=2):
    """One packet into service and two into the buffer: the PE is full."""
    for _ in range(3):
        assert pe.receive(Packet(0, dest_task=task))


def test_requeue_at_budget_is_resent_not_dropped(sim, mesh):
    """Rules 1 and 2: a requeue's re-send counts as a send, spends a
    reroute and skips the budget."""
    net, pes, observer = mesh
    pes[5].set_task(2)
    pes[10].set_task(2)
    assert pes[5].receive(Packet(0, dest_task=2))  # into service
    queued = Packet(0, dest_task=2)
    assert pes[5].receive(queued)
    queued.reroutes = net.max_reroutes
    pes[5].set_task(3, reason="test")
    assert _counts(net, queued, observer) == (
        1, 0, net.max_reroutes + 1, PacketStatus.IN_FLIGHT, {}, [],
    )
    sim.run_until(10_000)
    assert queued.status == PacketStatus.DELIVERED
    assert queued.dest_node == 10
    assert pes[10].completions == 1


def test_switched_destination_without_provider_counts_one_reroute(
        sim, mesh):
    """Rule 3: an in-flight re-resolution counts a reroute even when it
    drops; the drop is heard at the router where it happened."""
    net, _pes, observer = mesh
    net.directory.set_task(3, 2)
    packet = Packet(0, dest_task=2)
    assert net.send(packet, 0)
    sim.schedule(1, lambda: net.directory.set_task(3, 1))
    sim.run_until(10_000)
    assert _counts(net, packet, observer) == (
        1, 1, 1, PacketStatus.DROPPED_NO_PROVIDER,
        {"dropped_no_provider": 1}, [(3, packet.packet_id)],
    )


def test_bounce_with_every_provider_tried_counts_no_reroute(sim, mesh):
    """Rule 3: a bounce counts a reroute only when the packet re-enters
    the network; the failed re-entry is heard at the bouncer."""
    net, pes, observer = mesh
    pes[5].set_task(2)
    _fill(pes[5])
    packet = Packet(0, dest_task=2)
    assert net.send(packet, 0)
    sim.run_until(100)
    assert pes[5].overflows == 1
    sim.run_until(100 + HOLD_US)
    assert packet.tried == {5}
    assert _counts(net, packet, observer) == (
        1, 0, 1, PacketStatus.DROPPED_NO_PROVIDER,
        {"dropped_no_provider": 1}, [(5, packet.packet_id)],
    )


def test_bounce_from_node_failed_during_hold_drops_as_fault(sim, mesh):
    """Rule 4: the bounce counts a reroute, then drops as a fault at its
    dead bouncer, and no observer hears it."""
    net, pes, observer = mesh
    pes[5].set_task(2)
    pes[10].set_task(2)
    _fill(pes[5])
    packet = Packet(0, dest_task=2)
    assert net.send(packet, 0)
    sim.run_until(100)
    assert pes[5].overflows == 1
    net.fail_node(5)
    pes[5].halt()
    sim.run_until(10_000)
    assert _counts(net, packet, observer) == (
        1, 1, 1, PacketStatus.DROPPED_FAULT, {"dropped_fault": 1}, [],
    )
    assert pes[10].completions == 0


@pytest.mark.parametrize("isolated, status, drops, heard_at", [
    ((3,), PacketStatus.DELIVERED, {}, None),
    ((3, 12), PacketStatus.DROPPED_NO_PROVIDER,
     {"dropped_no_provider": 1}, 0),
], ids=["second-choice-routable", "second-choice-unroutable"])
def test_unroutable_first_choice_gets_one_more_attempt(
        sim, mesh, isolated, status, drops, heard_at):
    """Rule 5: the re-resolution counts one reroute; a second unroutable
    choice drops at once."""
    net, pes, observer = mesh
    for node in (3, 12):  # both 3 hops from node 0; 3 wins the tie
        pes[node].set_task(2)
    cut = {3: ((2, 3), (3, 7)), 12: ((8, 12), (12, 13))}
    for node in isolated:
        for a, b in cut[node]:
            net.fail_link(a, b)
    packet = Packet(0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    heard = [] if heard_at is None else [(heard_at, packet.packet_id)]
    assert _counts(net, packet, observer) == (1, 1, 1, status, drops, heard)
    if status == PacketStatus.DELIVERED:
        assert packet.dest_node == 12
        assert pes[12].completions == 1


def test_multicast_three_siblings_over_two_providers(sim, mesh):
    """Siblings take both providers, then the third reuses the nearest;
    each is one plain send."""
    net, pes, observer = mesh
    pes[5].set_task(2)
    pes[6].set_task(2)
    packets = [Packet(0, dest_task=2, branch=b) for b in range(3)]
    assert net.send_multicast(packets, 0) == 3
    assert [p.dest_node for p in packets] == [5, 6, 5]
    assert [p.reroutes for p in packets] == [0, 0, 0]
    assert (net.stats["sent"], net.stats["reroutes"], observer.dropped) == (
        3, 0, [],
    )
    sim.run_until(10_000)
    assert all(p.status == PacketStatus.DELIVERED for p in packets)
    assert pes[5].completions + pes[6].completions == 3
