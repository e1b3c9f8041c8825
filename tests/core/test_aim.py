"""Tests for the Artificial Intelligence Module."""

import pytest

from repro.core.models.base import IntelligenceModel
from repro.noc.packet import Packet


class ProbeModel(IntelligenceModel):
    """Records every hook invocation."""

    name = "probe"

    def __init__(self, task_ids=(1, 2, 3)):
        super().__init__(task_ids)
        self.events = []
        self.bound_to = None
        self.tunable = 0

    def bind(self, aim):
        self.bound_to = aim.node_id

    def on_packet_routed(self, aim, packet, to_internal, injected):
        self.events.append(("routed", packet.dest_task, to_internal, injected))

    def on_internal_sink(self, aim, packet):
        self.events.append(("sink", packet.dest_task))

    def on_execution_complete(self, aim, task_id):
        self.events.append(("complete", task_id))

    def on_task_changed(self, aim, old, new):
        self.events.append(("changed", old, new))

    def on_tick(self, aim, now):
        self.events.append(("tick", now))


@pytest.fixture
def probed(small_platform):
    platform = small_platform
    model = ProbeModel()
    platform.aims[5].upload_model(model)
    return platform, platform.aims[5], model


def test_upload_binds_model(probed):
    _platform, _aim, model = probed
    assert model.bound_to == 5


def test_ticks_delivered_periodically(probed):
    platform, _aim, model = probed
    platform.sim.run_until(platform.config.aim_tick_us * 3 + 1)
    ticks = [e for e in model.events if e[0] == "tick"]
    assert len(ticks) == 3


def _foreign_task(platform, node):
    """A task that some node other than ``node`` runs."""
    census = platform.network.directory.task_census()
    return min(task for task in census if task != platform.pes[node].task_id)


def test_router_events_relayed_with_injected_flag(probed):
    platform, _aim, model = probed
    network = platform.network
    task = _foreign_task(platform, 5)
    # Each send visits router 5 first, in this frame, and forwards.
    transit = Packet(0, dest_task=task)
    transit.hops = 2  # crossed two routers before re-entering here
    network.send(transit, 5)
    local = Packet(5, dest_task=task)  # hops == 0: locally injected
    network.send(local, 5)
    routed = [e for e in model.events if e[0] == "routed"]
    assert routed == [
        ("routed", task, False, False), ("routed", task, False, True),
    ]


def test_sunk_packet_relayed_as_internal(probed):
    platform, _aim, model = probed
    own = platform.pes[5].task_id
    platform.network.send(Packet(5, dest_task=own), 5)
    routed = [e for e in model.events if e[0] == "routed"]
    assert routed == [("routed", own, True, False)]


def test_base_no_op_hooks_are_never_called(small_platform, monkeypatch):
    """The `none` model keeps the base hooks: no AIM relays a routed
    event or a tick to them, before or after a restart (replaced here,
    after construction, by recorders)."""
    calls = []

    def routed(self, aim, packet, to_internal, injected):
        calls.append("routed")

    def tick(self, aim, now):
        calls.append("tick")

    monkeypatch.setattr(IntelligenceModel, "on_packet_routed", routed)
    monkeypatch.setattr(IntelligenceModel, "on_tick", tick)
    platform = small_platform
    platform.aims[5].shutdown()
    platform.aims[5].restart()  # a recovered node's AIM ticks no more
    platform.sim.run_until(platform.config.aim_tick_us * 5)
    assert platform.network.stats["hops"] > 0
    assert calls == []


class _TailObserver:
    """A router observer that logs into a shared list."""

    def __init__(self, log):
        self.log = log

    def on_packet_routed(self, router, packet, to_internal):
        self.log.append(("observer", packet.dest_task))


def test_relays_follow_the_uploaded_model(small_platform):
    """Routed events and ticks reach a model only while its class
    overrides the hook, re-read on every upload; the router keeps its
    observers in subscription order throughout."""
    platform = small_platform
    sim, network = platform.sim, platform.network
    aim, router = platform.aims[5], network.router(5)
    baseline = aim.model  # the `none` model overrides neither hook
    log = []
    tail = _TailObserver(log)
    router.add_observer(tail)
    task = _foreign_task(platform, 5)
    tick = platform.config.aim_tick_us

    def visit():
        network.send(Packet(5, dest_task=task), 5)

    assert router.routed_handlers == [tail.on_packet_routed]
    visit()
    assert log == [("observer", task)]

    probe = ProbeModel()
    probe.events = log
    aim.upload_model(probe)
    assert router.routed_handlers == [
        aim.on_packet_routed, tail.on_packet_routed,
    ]
    del log[:]
    visit()
    assert log == [("routed", task, False, True), ("observer", task)]
    sim.run_until(tick)
    assert ("tick", tick) in log

    aim.upload_model(baseline)
    assert router.routed_handlers == [tail.on_packet_routed]
    del log[:]
    visit()
    sim.run_until(tick * 3)
    assert log[0] == ("observer", task)
    assert {entry[0] for entry in log} == {"observer"}


def test_pe_events_relayed(probed):
    platform, _aim, model = probed
    pe = platform.pes[5]
    pe.set_task(2, reason="test")
    pe.receive(Packet(0, dest_task=2))
    platform.sim.run_until(50_000)
    kinds = {e[0] for e in model.events}
    assert {"changed", "sink", "complete"} <= kinds


def test_switch_task_knob(probed):
    platform, aim, _model = probed
    aim.switch_task(3)
    assert platform.pes[5].task_id == 3
    assert platform.pes[5].task_switches >= 1


def test_knob_reason_is_model_name(probed):
    platform, aim, _model = probed
    assert aim.knobs["task_select"].reason == "probe"


def test_shutdown_stops_ticks(probed):
    platform, aim, model = probed
    platform.sim.run_until(platform.config.aim_tick_us + 1)
    aim.shutdown()
    before = len([e for e in model.events if e[0] == "tick"])
    platform.sim.run_until(platform.config.aim_tick_us * 10)
    after = len([e for e in model.events if e[0] == "tick"])
    assert before == after


def test_halted_node_silences_relays(probed):
    platform, _aim, model = probed
    task = _foreign_task(platform, 5)
    platform.pes[5].halt()
    packet = Packet(0, dest_task=task)
    packet.hops = 1
    platform.network.send(packet, 5)
    assert platform.network.router(5).packets_forwarded == 1
    routed = [e for e in model.events if e[0] == "routed"]
    assert routed == []


def test_rcap_write_params(probed):
    _platform, aim, model = probed
    aim.rcap_write_params({"tunable": 9})
    assert model.tunable == 9


def test_rcap_unknown_param_rejected(probed):
    _platform, aim, _model = probed
    with pytest.raises(KeyError):
        aim.rcap_write_params({"definitely_not_a_param": 1})


def test_rcap_without_model_rejected(small_platform):
    aim = small_platform.aims[5]
    aim.upload_model(None)
    with pytest.raises(RuntimeError):
        aim.rcap_write_params({"x": 1})


def test_model_replacement(probed):
    platform, aim, old_model = probed
    replacement = ProbeModel()
    aim.upload_model(replacement)
    platform.sim.run_until(platform.config.aim_tick_us + 1)
    assert any(e[0] == "tick" for e in replacement.events)


def test_frequency_and_clock_helpers(probed):
    platform, aim, _model = probed
    assert aim.set_frequency(250) == 250
    assert aim.set_clock_enabled(False) is False
    assert aim.set_clock_enabled(True) is True
    assert aim.reset_node() is True
