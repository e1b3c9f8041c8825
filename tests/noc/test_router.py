"""Tests for the five-port router."""

import pytest

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketStatus
from repro.noc.router import Router, RouterConfig
from repro.noc.topology import DIRECTIONS, EAST, INTERNAL, WEST, MeshTopology


def test_router_has_five_ports():
    router = Router(0)
    assert set(router.ports) == set(DIRECTIONS) | {INTERNAL}


def _line(sim, config=None):
    """A 3x1 mesh: a packet sent from node 0 is forwarded by routers 0
    and 1 and sunk by router 2."""
    net = Network(sim, topology=MeshTopology(3, 1), router_config=config)
    net.set_deliver_handler(lambda packet, node: None)
    return net


def _send_across(net, sim, *tasks):
    """Send one packet per task from node 0 to node 2, which runs it."""
    for task in tasks:
        net.directory.set_task(2, task)
        net.send(Packet(0, dest_task=task), 0)
        sim.run_until(sim.now + 1_000)


def test_forwarded_packet_counts_task_and_queue(sim):
    net = _line(sim)
    _send_across(net, sim, 2, 2, 3)
    for node in (0, 1):
        router = net.router(node)
        assert router.task_route_counts == {2: 2, 3: 1}
        assert router.packets_forwarded == 3
        assert router.recent_tasks == [2, 2, 3]


def test_internal_routing_counts_sink_not_queue(sim):
    net = _line(sim)
    _send_across(net, sim, 2)
    router = net.router(2)
    assert router.packets_sunk == 1
    assert router.packets_forwarded == 0
    assert router.recent_tasks == []
    assert router.task_route_counts == {2: 1}


def test_recent_queue_bounded_by_config(sim):
    net = _line(sim, RouterConfig(recent_queue_depth=3))
    _send_across(net, sim, 1, 2, 3, 1, 2)
    assert net.router(1).recent_tasks == [3, 1, 2]


def test_observers_receive_routing_events(sim, recording_observer):
    net = _line(sim)
    for node in (0, 1, 2):
        net.router(node).add_observer(recording_observer)
    _send_across(net, sim, 2, 3)
    assert recording_observer.routed == [
        (0, 2, False), (1, 2, False), (2, 2, True),
        (0, 3, False), (1, 3, False), (2, 3, True),
    ]


class _Tagged:
    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def on_packet_routed(self, router, packet, to_internal):
        self.log.append(self.tag)


def test_observers_called_in_subscription_order(sim):
    net = _line(sim)
    log = []
    for tag in ("first", "second", "third"):
        net.router(1).add_observer(_Tagged(tag, log))
    _send_across(net, sim, 2)
    assert log == ["first", "second", "third"]


def test_observer_not_wanting_routing_events_is_skipped(sim):
    net = _line(sim)
    log = []
    quiet = _Tagged("quiet", log)
    quiet.wants_routing_events = False
    net.router(1).add_observer(quiet)
    net.router(1).add_observer(_Tagged("loud", log))
    _send_across(net, sim, 2)
    assert log == ["loud"]
    quiet.wants_routing_events = True
    net.router(1).refresh_handlers()
    _send_across(net, sim, 2)
    assert log == ["loud", "quiet", "loud"]


def test_removed_observer_stops_receiving(sim, recording_observer):
    net = _line(sim)
    net.router(1).add_observer(recording_observer)
    net.router(1).remove_observer(recording_observer)
    _send_across(net, sim, 2)
    assert recording_observer.routed == []


def test_failed_router_ignores_events(sim, recording_observer):
    """A packet on the link into a router that fails drops there as a
    fault, and the dead router counts and reports nothing."""
    net = _line(sim)
    router = net.router(1)
    router.add_observer(recording_observer)
    net.directory.set_task(2, 2)
    packet = Packet(0, dest_task=2)
    net.send(packet, 0)
    sim.run_until(4)  # router 0 forwarded it at t=0; it reaches 1 at t=7
    assert packet.hops == 1
    net.fail_node(1)
    assert router.failed
    sim.run_until(1_000)
    assert packet.status == PacketStatus.DROPPED_FAULT
    assert net.stats["dropped_fault"] == 1
    assert router.packets_forwarded == 0
    assert router.task_route_counts == {}
    assert recording_observer.routed == []
    assert recording_observer.dropped == []
    assert router.packets_dropped_here == 0
    assert all(
        port.packets_in == port.packets_out == 0
        for port in router.ports.values()
    )


def test_port_counters_follow_the_packet(sim):
    """Entry ports count in, exit ports count out, the sink counts L."""
    net = _line(sim)
    _send_across(net, sim, 2)
    counts = {
        (node, name): (port.packets_in, port.packets_out)
        for node in (0, 1, 2)
        for name, port in net.router(node).ports.items()
        if port.packets_in or port.packets_out
    }
    assert counts == {
        (0, EAST): (0, 1),
        (1, WEST): (1, 0),
        (1, EAST): (0, 1),
        (2, WEST): (1, 0),
        (2, INTERNAL): (0, 1),
    }


class TestRcap:
    def test_write_and_read(self):
        router = Router(0)
        router.rcap_write({"routing_mode": "xy", "router_latency": 5})
        settings = router.rcap_read()
        assert settings["routing_mode"] == "xy"
        assert settings["router_latency"] == 5

    def test_unknown_setting_rejected(self):
        router = Router(0)
        with pytest.raises(KeyError):
            router.rcap_write({"no_such_setting": 1})

    def test_write_to_failed_router_rejected(self, sim):
        net = _line(sim)
        net.fail_node(0)
        with pytest.raises(RuntimeError):
            net.router(0).rcap_write({"router_latency": 5})
        net.recover_node(0)
        net.router(0).rcap_write({"router_latency": 5})
        assert net.router(0).rcap_read()["router_latency"] == 5

    @pytest.mark.parametrize(
        "settings",
        [
            {"routing_mode": "bogus"},
            {"recent_queue_depth": 0},
            {"router_latency": -10},
            {"router_latency": 5, "routing_mode": "bogus"},
        ],
        ids=["mode", "queue-depth", "latency", "good-with-bad"],
    )
    def test_invalid_value_rejected_and_nothing_applied(self, settings):
        router = Router(0)
        before = router.rcap_read()
        with pytest.raises(ValueError):
            router.rcap_write(settings)
        assert router.rcap_read() == before

    def test_unknown_setting_applies_nothing(self):
        router = Router(0)
        before = router.rcap_read()
        with pytest.raises(KeyError):
            router.rcap_write({"router_latency": 5, "no_such_setting": 1})
        assert router.rcap_read() == before

    def test_config_methods_are_not_settings(self):
        router = Router(0)
        with pytest.raises(KeyError):
            router.rcap_write({"copy": None})


class TestRouterConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(routing_mode="magic")

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(router_latency=-1)

    def test_copy_is_independent(self):
        config = RouterConfig(router_latency=4)
        clone = config.copy()
        clone.router_latency = 9
        assert config.router_latency == 4
