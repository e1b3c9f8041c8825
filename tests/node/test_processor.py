"""Tests for the processing element."""

import pytest

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketStatus
from repro.noc.topology import MeshTopology
from repro.node.processor import ProcessingElement


class StubApp:
    """Minimal application: task 1 generates, all tasks take 50us."""

    def __init__(self, service_us=50, downstream=None):
        self.service_us = service_us
        self.downstream = downstream or {}
        self.executed = []

    def generation_period(self, task_id):
        return 100 if task_id == 1 else None

    def service_time(self, task_id):
        return self.service_us

    def packets_for_generation(self, pe):
        return [Packet(pe.node_id, dest_task=2, created_at=pe.sim.now)]

    def packets_after_execution(self, pe, packet):
        self.executed.append((pe.node_id, pe.task_id, packet.packet_id))
        downstream = self.downstream.get(pe.task_id)
        if downstream is None:
            return []
        return [Packet(pe.node_id, dest_task=downstream,
                       created_at=pe.sim.now)]


@pytest.fixture
def harness(sim):
    network = Network(sim, topology=MeshTopology(4, 4))
    app = StubApp()
    pes = {}
    for node in network.topology.node_ids():
        pes[node] = ProcessingElement(
            sim, node, network, app=app, queue_capacity=2,
            service_jitter=0.0,
        )
    network.set_deliver_handler(lambda pkt, node: pes[node].receive(pkt))
    return sim, network, app, pes


def _packet(task=2, now=0):
    return Packet(src_node=0, dest_task=task, created_at=now)


class TestTaskAssignment:
    def test_set_task_publishes_to_directory(self, harness):
        sim, network, app, pes = harness
        pes[5].set_task(2)
        assert network.directory.task_of(5) == 2

    def test_init_reason_not_counted_as_switch(self, harness):
        _sim, _net, _app, pes = harness
        pes[5].set_task(2, reason="init")
        assert pes[5].task_switches == 0

    def test_intelligence_switch_counted(self, harness):
        _sim, _net, _app, pes = harness
        pes[5].set_task(2, reason="init")
        pes[5].set_task(3, reason="ffw")
        assert pes[5].task_switches == 1

    def test_same_task_is_noop(self, harness):
        _sim, _net, _app, pes = harness
        pes[5].set_task(2, reason="init")
        pes[5].set_task(2, reason="ffw")
        assert pes[5].task_switches == 0

    def test_switch_requeues_pending_packets(self, harness):
        sim, network, app, pes = harness
        pes[5].set_task(2)
        pes[10].set_task(2)
        executing = _packet()
        queued = _packet()
        pes[5].receive(executing)  # pops straight into execution
        pes[5].receive(queued)     # waits in the queue
        pes[5].set_task(3, reason="ffw")
        sim.run_until(10_000)
        # The queued packet must be re-sent and end up at node 10.
        assert queued.status == PacketStatus.DELIVERED
        assert pes[10].completions == 1


class TestExecution:
    def test_receive_and_complete(self, harness):
        sim, _net, app, pes = harness
        pes[5].set_task(2)
        assert pes[5].receive(_packet())
        sim.run_until(1000)
        assert pes[5].completions == 1
        assert app.executed[0][0] == 5

    def test_service_time_scales_with_frequency(self, harness):
        sim, _net, _app, pes = harness
        pes[5].set_task(2)
        pes[5].frequency.set_frequency(50)  # half speed -> 100us service
        pes[5].receive(_packet())
        sim.run_until(60)
        assert pes[5].completions == 0
        sim.run_until(110)
        assert pes[5].completions == 1

    def test_queue_processes_in_order(self, harness):
        sim, _net, app, pes = harness
        pes[5].set_task(2)
        first = _packet()
        second = _packet()
        pes[5].receive(first)
        pes[5].receive(second)
        sim.run_until(1000)
        executed_ids = [pid for (_n, _t, pid) in app.executed]
        assert executed_ids == [first.packet_id, second.packet_id]

    def test_completion_emits_downstream(self, harness):
        sim, network, app, pes = harness
        app.downstream = {2: 3}
        pes[5].set_task(2)
        pes[10].set_task(3)
        pes[5].receive(_packet())
        sim.run_until(10_000)
        assert pes[10].completions == 1

    def test_window_executions_drain(self, harness):
        sim, _net, _app, pes = harness
        pes[5].set_task(2)
        pes[5].receive(_packet())
        sim.run_until(1000)
        assert pes[5].drain_window_executions() == 1
        assert pes[5].drain_window_executions() == 0


class TestBackpressure:
    def test_mismatched_task_resent(self, harness):
        sim, network, _app, pes = harness
        pes[5].set_task(3)
        pes[10].set_task(2)
        packet = _packet(task=2)
        assert not pes[5].receive(packet)
        assert pes[5].overflows == 0  # a bounce, but not a full buffer
        sim.run_until(10_000)
        assert packet.status == PacketStatus.DELIVERED
        assert pes[10].completions == 1

    def test_overflow_diverts_to_other_provider(self, harness):
        sim, network, _app, pes = harness
        pes[5].set_task(2)
        pes[10].set_task(2)
        # One packet goes straight to execution, two fill the queue (cap 2),
        # the fourth overflows.
        accepted = [pes[5].receive(_packet()) for _ in range(4)]
        assert accepted == [True, True, True, False]
        assert pes[5].overflows == 1
        sim.run_until(50_000)
        assert pes[10].completions >= 1

    def test_overflow_marks_packet_tried(self, harness):
        sim, _net, _app, pes = harness
        pes[5].set_task(2)
        packet = _packet()
        for _ in range(3):
            pes[5].receive(_packet())
        pes[5].receive(packet)
        assert packet.tried is None  # the network marks it, after the hold
        sim.run_until(pes[5].overflow_hold_us)
        assert 5 in packet.tried


class TestGeneration:
    def test_source_task_generates_periodically(self, harness):
        sim, network, _app, pes = harness
        pes[0].set_task(1)
        pes[5].set_task(2)
        sim.run_until(1050)
        assert pes[0].generations >= 9
        assert pes[5].completions >= 9

    def test_leaving_source_task_stops_generation(self, harness):
        sim, _net, _app, pes = harness
        pes[0].set_task(1)
        pes[5].set_task(2)
        sim.run_until(500)
        count = pes[0].generations
        pes[0].set_task(3, reason="test")
        sim.run_until(1500)
        assert pes[0].generations == count


class TestKnobsAndFaults:
    def test_clock_gate_pauses_execution(self, harness):
        sim, _net, _app, pes = harness
        pes[5].set_task(2)
        pes[5].set_clock_enabled(False)
        packet = _packet()
        assert not pes[5].receive(packet)  # resent, node gated
        assert pes[5].overflows == 0
        assert pes[5].completions == 0

    def test_clock_reenable_resumes(self, harness):
        sim, _net, _app, pes = harness
        pes[5].set_task(2)
        pes[5].receive(_packet())
        sim.run_until(10)
        pes[5].set_clock_enabled(False)
        pes[5].set_clock_enabled(True)
        sim.run_until(1000)
        assert pes[5].completions == 1

    def test_halt_stops_everything(self, harness):
        sim, _net, _app, pes = harness
        pes[0].set_task(1)
        pes[5].set_task(2)
        pes[0].halt()
        sim.run_until(1000)
        assert pes[0].generations == 0
        assert pes[5].completions == 0

    def test_halted_node_ignores_set_task(self, harness):
        _sim, _net, _app, pes = harness
        pes[5].set_task(2)
        pes[5].halt()
        pes[5].set_task(3, reason="ffw")
        assert pes[5].task_id == 2

    def test_reset_clears_queue_keeps_task(self, harness):
        sim, _net, _app, pes = harness
        pes[5].set_task(2)
        pes[5].receive(_packet())
        pes[5].receive(_packet())
        pes[5].reset()
        assert len(pes[5].queue) == 0
        assert pes[5].task_id == 2

    @pytest.mark.parametrize("interrupt", ["halt-restart", "reset"])
    def test_interrupted_service_never_completes(self, harness, interrupt):
        # A halt, with the node back before the old completion lands, or
        # a reset drops the packet in service: it must never execute, and
        # the next packet keeps its own service slot.
        sim, _net, app, pes = harness
        app.service_us = 1000
        pe = pes[5]
        pe.set_task(2)
        dead, fresh = _packet(), _packet()
        pe.receive(dead)
        if interrupt == "reset":
            sim.schedule_at(100, pe.reset)
        else:
            sim.schedule_at(100, pe.halt)
            sim.schedule_at(200, lambda: (pe.restart(), pe.set_task(2)))
        sim.schedule_at(300, lambda: pe.receive(fresh))
        sim.run_until(1299)
        assert pe.completions == 0
        sim.run_until(5000)
        assert [pid for (_n, _t, pid) in app.executed] == [fresh.packet_id]
        assert pe.completions == 1

    def test_halt_strands_the_packet_in_service(self, harness):
        sim, _net, app, pes = harness
        app.service_us = 1000
        pe = pes[5]
        pe.set_task(2)
        pe.receive(_packet())
        sim.schedule_at(100, pe.halt)
        sim.run_until(5000)
        assert (app.executed, pe.completions, pe.busy) == ([], 0, False)

    def test_stale_completion_keeps_the_live_service_slot(self, harness):
        # The reset packet's completion lands at 1000, inside the service
        # of the packet received at 300: the node must stay busy, so a
        # third packet queues behind it instead of starting at once.
        sim, _net, app, pes = harness
        app.service_us = 1000
        pe = pes[5]
        pe.set_task(2)
        pe.receive(_packet())
        sim.schedule_at(100, pe.reset)
        sim.schedule_at(300, lambda: pe.receive(_packet()))
        sim.run_until(1100)
        assert pe.busy
        assert pe.receive(_packet())
        assert len(pe.queue) == 1
        sim.run_until(2299)
        assert pe.completions == 1
        sim.run_until(2300)
        assert pe.completions == 2


class TestObservers:
    def test_sink_and_completion_events(self, harness, recording_observer):
        sim, _net, _app, pes = harness
        pes[5].add_observer(recording_observer)
        pes[5].set_task(2)
        pes[5].receive(_packet())
        sim.run_until(1000)
        assert recording_observer.sinks == [(5, 2)]
        assert recording_observer.completions == [(5, 2)]

    def test_task_change_event(self, harness, recording_observer):
        _sim, _net, _app, pes = harness
        pes[5].add_observer(recording_observer)
        pes[5].set_task(2)
        assert recording_observer.task_changes == [(5, None, 2)]
