"""Tests for the network hop engine and task-addressed delivery."""

import pytest

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketStatus
from repro.noc.topology import MeshTopology
from repro.sim.engine import Simulator


@pytest.fixture
def net(sim):
    network = Network(sim, topology=MeshTopology(4, 4))
    delivered = []
    network.set_deliver_handler(
        lambda packet, node: delivered.append((packet, node))
    )
    network.delivered_log = delivered
    return network


def test_link_count_of_mesh(net):
    # 4x4 mesh: 2 * (3*4 + 4*3) = 48 directed links.
    assert len(net.links) == 48


def test_delivery_to_nearest_provider(net, sim):
    net.directory.set_task(15, 2)  # far corner
    net.directory.set_task(5, 2)   # near
    packet = Packet(src_node=0, dest_task=2)
    assert net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert net.delivered_log == [(packet, 5)]
    assert packet.hops == net.topology.manhattan(0, 5)


def test_local_provider_delivers_without_hops(net, sim):
    net.directory.set_task(0, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(100)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops == 0


def test_no_provider_drops_immediately(net):
    packet = Packet(src_node=0, dest_task=9)
    assert not net.send(packet, 0)
    assert packet.status == PacketStatus.DROPPED_NO_PROVIDER
    assert net.stats["dropped_no_provider"] == 1


def test_send_from_failed_node_drops(net):
    net.directory.set_task(5, 2)
    net.fail_node(0)
    packet = Packet(src_node=0, dest_task=2)
    assert not net.send(packet, 0)
    assert packet.status == PacketStatus.DROPPED_FAULT


def test_task_switch_mid_flight_reroutes(net, sim):
    """If the destination stops providing the task, the packet re-resolves."""
    net.directory.set_task(3, 2)
    net.directory.set_task(12, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    assert packet.dest_node == 3
    # Before it gets there, node 3 switches away.
    sim.schedule(1, lambda: net.directory.set_task(3, 1))
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert net.delivered_log[0][1] == 12
    assert packet.reroutes >= 1


def test_all_providers_vanish_drops_packet(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.schedule(1, lambda: net.directory.set_task(3, 1))
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DROPPED_NO_PROVIDER


def test_delivery_routes_around_failed_link(net, sim):
    net.directory.set_task(3, 2)
    net.fail_link(0, 1)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops > net.topology.manhattan(0, 3)


def test_fail_link_requires_adjacency(net):
    with pytest.raises(KeyError):
        net.fail_link(0, 5)


def test_recover_link_restores_delivery_path(net, sim):
    net.directory.set_task(3, 2)
    net.fail_link(0, 1)
    net.recover_link(1, 0)  # either endpoint order works
    assert not net.failed_links
    assert net.link(0, 1).enabled
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops == net.topology.manhattan(0, 3)


def test_recover_node_restores_routing(net, sim):
    net.directory.set_task(3, 2)
    net.fail_node(1)
    net.recover_node(1)
    assert 1 not in net.failed_nodes
    assert not net.router(1).failed
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops == net.topology.manhattan(0, 3)


def test_link_fault_events_traced(sim):
    from repro.sim.trace import TraceRecorder

    trace = TraceRecorder(("link_failed", "link_recovered"))
    network = Network(sim, topology=MeshTopology(4, 4), trace=trace)
    network.fail_link(0, 1)
    network.recover_link(0, 1)
    assert trace.count("link_failed") == 1
    assert trace.count("link_recovered") == 1


def test_delivery_routes_around_faults(net, sim):
    # Provider due east at (3,0); kill the straight-line path.
    net.directory.set_task(3, 2)
    net.fail_node(1)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert packet.hops > net.topology.manhattan(0, 3)


def test_packet_arriving_at_failed_router_dropped(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    # Fail an XY path router while the packet is on the link into it:
    # routers 0 and 1 forwarded it at t=0 and t=7, it reaches 2 at t=14.
    sim.run_until(10)
    assert packet.hops == 2
    net.fail_node(2)
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DROPPED_FAULT
    assert net.stats["dropped_fault"] == 1
    assert net.delivered_log == []


def test_redirect_moves_packet_to_alternative(net, sim):
    net.directory.set_task(5, 2)
    net.directory.set_task(10, 2)
    packet = Packet(src_node=0, dest_task=2)
    assert net.redirect(packet, 5)
    assert packet.tried == {5}
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert net.delivered_log[0][1] == 10


def test_redirect_accumulates_bounced_providers(net, sim):
    """Each bounce adds its node to ``packet.tried``; the packet moves
    outward through 5 → 6 → 10 and drops once all three bounced it."""
    _providers(net, 5, 6, 10)
    packet = Packet(src_node=0, dest_task=2)
    for bouncer, next_provider in ((5, 6), (6, 10)):
        assert net.redirect(packet, bouncer)
        sim.run_until(sim.now + 1_000)
        assert net.delivered_log[-1] == (packet, next_provider)
    assert not net.redirect(packet, 10)
    assert packet.tried == {5, 6, 10}
    assert packet.status == PacketStatus.DROPPED_NO_PROVIDER


def test_redirect_exhaustion_drops(net):
    net.directory.set_task(5, 2)
    packet = Packet(src_node=0, dest_task=2)
    packet.reroutes = net.max_reroutes + 1
    assert not net.redirect(packet, 0)
    assert packet.status == PacketStatus.DROPPED_NO_PROVIDER


def test_fail_node_updates_directory_and_policy(net):
    net.directory.set_task(5, 2)
    net.fail_node(5)
    assert net.directory.providers(2) == []
    assert 5 in net.policy.failed
    assert net.routers[5].failed


def test_routers_see_routing_events(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(10_000)
    # Routers 0..2 forwarded; router 3 sank.
    assert net.routers[0].packets_forwarded == 1
    assert net.routers[1].packets_forwarded == 1
    assert net.routers[2].packets_forwarded == 1
    assert net.routers[3].packets_sunk == 1


def test_stats_hops_accumulate(net, sim):
    net.directory.set_task(3, 2)
    net.send(Packet(src_node=0, dest_task=2), 0)
    sim.run_until(10_000)
    assert net.stats["hops"] == 3
    assert net.stats["delivered"] == 1


def test_each_hop_is_one_kernel_event(net, sim):
    net.directory.set_task(3, 2)
    packet = Packet(src_node=0, dest_task=2)
    net.send(packet, 0)
    # Injection claims the first link at once and posts its arrival.
    assert (packet.hops, sim.pending_events, sim.dispatched_events) == (
        1, 1, 0,
    )
    # One dispatched event per router the packet reaches after the
    # source, even with nothing else pending to interleave with.
    sim.run_until(10_000)
    assert packet.status == PacketStatus.DELIVERED
    assert sim.dispatched_events == net.stats["hops"] == 3


def test_multicast_hops_are_one_kernel_event_each(net, sim):
    for provider in (5, 6, 10):
        net.directory.set_task(provider, 2)
    packets = [Packet(0, dest_task=2, branch=b) for b in range(3)]
    assert net.send_multicast(packets, 0) == 3
    # The three first hops are claimed at once, one posted event each.
    assert [p.hops for p in packets] == [1, 1, 1]
    assert (sim.pending_events, sim.dispatched_events) == (3, 0)
    sim.run_until(10_000)
    assert all(p.status == PacketStatus.DELIVERED for p in packets)
    # 2 + 3 + 4 hops to nodes 5, 6 and 10; shared-channel waits add none.
    assert sim.dispatched_events == net.stats["hops"] == 9


def _providers(net, *nodes, task=2):
    for node in nodes:
        net.directory.set_task(node, task)


def test_send_with_siblings_skips_providers_already_taken(net, sim):
    _providers(net, 5, 6, 10)  # 2, 3 and 4 hops from node 0
    siblings = {5}
    packet = Packet(0, dest_task=2)
    assert net.send(packet, 0, siblings)
    assert packet.dest_node == 6
    assert siblings == {5, 6}
    sim.run_until(10_000)
    assert net.delivered_log == [(packet, 6)]


def test_send_with_siblings_reuses_nearest_when_all_taken(net):
    _providers(net, 5, 6)
    siblings = {5, 6}
    packet = Packet(0, dest_task=2)
    assert net.send(packet, 0, siblings)
    assert packet.dest_node == 5
    assert siblings == {5, 6}


def test_send_with_empty_siblings_records_its_provider(net):
    _providers(net, 5, 6)
    siblings = set()
    packet = Packet(0, dest_task=2)
    assert net.send(packet, 0, siblings)
    assert packet.dest_node == 5
    assert siblings == {5}


def test_dropped_send_leaves_siblings_unchanged(net):
    siblings = {5}
    assert not net.send(Packet(0, dest_task=9), 0, siblings)
    _providers(net, 6)
    net.fail_node(0)
    assert not net.send(Packet(0, dest_task=2), 0, siblings)
    assert siblings == {5}


def test_multicast_is_sibling_sends_in_order():
    """``send_multicast`` is ``send`` over its packets with one shared
    sibling set: same providers, hops, delivery times and event count."""

    def run(multicast):
        sim = Simulator(seed=1234)
        net = Network(sim, topology=MeshTopology(4, 4))
        delivered = []
        net.set_deliver_handler(
            lambda packet, node: delivered.append(
                (packet.branch, node, sim.now)
            )
        )
        _providers(net, 5, 6)
        packets = [Packet(0, dest_task=2, branch=b) for b in range(3)]
        if multicast:
            assert net.send_multicast(packets, 0) == 3
        else:
            siblings = set()
            for packet in packets:
                assert net.send(packet, 0, siblings)
        sim.run_until(10_000)
        return delivered, net.stats["hops"], sim.dispatched_events

    delivered, hops, events = run(multicast=True)
    assert (delivered, hops, events) == run(multicast=False)
    # Two distinct providers first, then the nearest is reused.
    assert sorted(node for (_b, node, _t) in delivered) == [5, 5, 6]
