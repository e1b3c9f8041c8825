"""Tests for the fork-join application: the builtin ``fork_join`` spec
run by :class:`~repro.app.workloads.GraphWorkload`."""

import pytest

from repro.app.workloads import (
    GraphWorkload,
    compile_workload,
    fork_join_spec,
)
from repro.noc.packet import Packet
from repro.sim.engine import Simulator

#: Task ids of the Figure 3 graph.
SOURCE, BRANCH, SINK = 1, 2, 3


class FakePE:
    def __init__(self, node_id, task_id, gen_seq=0):
        self.node_id = node_id
        self.task_id = task_id
        self._gen_seq = gen_seq


def fork_join(**spec_fields):
    return GraphWorkload(
        Simulator(seed=0), compile_workload(fork_join_spec(**spec_fields))
    )


@pytest.fixture
def workload():
    return fork_join()


class TestServiceAndPeriods:
    def test_service_times_from_graph(self, workload):
        assert workload.service_time(BRANCH) == fork_join_spec().task(
            BRANCH).service_us == 12_500

    def test_generation_period_only_for_source(self, workload):
        assert workload.generation_period(SOURCE) == 4_000
        assert workload.generation_period(BRANCH) is None
        assert workload.generation_period(99) is None


class TestGeneration:
    def test_source_emits_branch_packets_cycling(self, workload):
        pe = FakePE(7, SOURCE)
        branches = []
        for seq in range(6):
            pe._gen_seq = seq
            (packet,) = workload.packets_for_generation(pe)
            branches.append((packet.instance, packet.branch))
            assert packet.dest_task == BRANCH
        assert branches == [
            ((7, 0), 0), ((7, 0), 1), ((7, 0), 2),
            ((7, 1), 0), ((7, 1), 1), ((7, 1), 2),
        ]

    def test_non_source_generates_nothing(self, workload):
        assert workload.packets_for_generation(FakePE(7, BRANCH)) == []

    def test_generation_stamps_deadline(self, workload):
        (packet,) = workload.packets_for_generation(FakePE(7, SOURCE))
        assert packet.deadline == workload.sim.now + fork_join_spec().task(
            SOURCE).deadline_us


class TestPipeline:
    def test_branch_execution_forwards_to_sink(self, workload):
        pe = FakePE(3, BRANCH)
        incoming = Packet(7, BRANCH, instance=(7, 0), branch=1)
        (out,) = workload.packets_after_execution(pe, incoming)
        assert out.dest_task == SINK
        assert out.instance == (7, 0)
        assert out.branch == 1

    def test_source_sinking_result_emits_nothing(self, workload):
        pe = FakePE(7, SOURCE)
        result = Packet(9, SOURCE, instance=(7, 0))
        assert workload.packets_after_execution(pe, result) == []


class TestJoin:
    def sink(self, workload, instance, branch, node=9):
        pe = FakePE(node, SINK)
        packet = Packet(3, SINK, instance=instance, branch=branch)
        return workload.packets_after_execution(pe, packet)

    def test_join_completes_after_all_branches(self, workload):
        assert self.sink(workload, (7, 0), 0) == []
        assert self.sink(workload, (7, 0), 1) == []
        out = self.sink(workload, (7, 0), 2)
        assert workload.joins == 1
        (result,) = out
        assert result.dest_task == SOURCE
        assert result.instance == (7, 0)

    def test_straggler_after_join_does_not_reopen_instance(self, workload):
        self.sink(workload, (7, 0), 0)
        self.sink(workload, (7, 0), 1)
        self.sink(workload, (7, 0), 2)
        assert workload.joins == 1
        # A diverted duplicate of branch 0 arrives after the join.
        assert self.sink(workload, (7, 0), 0) == []
        assert workload.joins == 1
        assert workload.pending_join_count == 0
        assert workload.duplicate_branches == 1

    def test_prune_also_forgets_completed_instances(self, workload):
        for branch in range(3):
            self.sink(workload, (7, 0), branch)
        self.sink(workload, (7, 100_000), 0)
        workload.prune_stale_joins(older_than_instances=50_000)
        # The ancient completed instance was forgotten...
        assert (7, 0) not in workload._completed_joins
        # ...so a ghost branch for it opens a (doomed) pending entry rather
        # than being mis-ascribed to the duplicate counter.
        self.sink(workload, (7, 0), 1)
        assert workload.pending_join_count == 2

    def test_duplicate_branch_not_double_counted(self, workload):
        self.sink(workload, (7, 0), 0)
        self.sink(workload, (7, 0), 0)
        assert workload.duplicate_branches == 1
        assert workload.pending_join_count == 1
        assert workload.joins == 0

    def test_branches_may_join_at_different_sinks(self, workload):
        self.sink(workload, (7, 0), 0, node=9)
        self.sink(workload, (7, 0), 1, node=11)
        self.sink(workload, (7, 0), 2, node=14)
        assert workload.joins == 1

    def test_interleaved_instances(self, workload):
        self.sink(workload, (7, 0), 0)
        self.sink(workload, (8, 0), 0)
        self.sink(workload, (7, 0), 1)
        self.sink(workload, (8, 0), 1)
        self.sink(workload, (8, 0), 2)
        assert workload.joins == 1
        assert workload.pending_join_count == 1

    def test_packet_without_instance_ignored(self, workload):
        pe = FakePE(9, SINK)
        packet = Packet(3, SINK, instance=None)
        assert workload.packets_after_execution(pe, packet) == []
        assert workload.joins == 0

    def test_prune_stale_joins(self, workload):
        self.sink(workload, (7, 0), 0)
        self.sink(workload, (7, 100_000), 0)
        pruned = workload.prune_stale_joins(older_than_instances=50_000)
        assert pruned == 1
        assert workload.pending_join_count == 1


class TestMulticast:
    """Behaviour of the SS V multicast generation mode (the spec's
    ``multicast`` field, ``multicast_fork`` on a config-only cell)."""

    @pytest.fixture
    def multicast(self):
        return fork_join(multicast=True)

    def test_generation_period_stretched_by_fork_width(self, multicast):
        assert multicast.generation_period(SOURCE) == 3 * 4_000

    def test_source_emits_whole_instance_per_tick(self, multicast):
        pe = FakePE(7, SOURCE)
        packets = multicast.packets_for_generation(pe)
        assert [(p.instance, p.branch) for p in packets] == [
            ((7, 0), 0), ((7, 0), 1), ((7, 0), 2),
        ]
        assert all(p.dest_task == BRANCH for p in packets)
        pe._gen_seq = 1
        packets = multicast.packets_for_generation(pe)
        assert all(p.instance == (7, 1) for p in packets)

    def test_spec_multicast_field_matches_legacy_emission(self, multicast):
        # What the hand-written fork-join application emitted: every
        # branch of instance (7, 0), each due 16 ms after creation.
        assert multicast.generation_period(SOURCE) == 12_000
        packets = multicast.packets_for_generation(FakePE(7, SOURCE))
        assert [
            (p.src_node, p.dest_task, p.instance, p.branch, p.deadline,
             p.size_flits)
            for p in packets
        ] == [
            (7, BRANCH, (7, 0), 0, 16_000, 4),
            (7, BRANCH, (7, 0), 1, 16_000, 4),
            (7, BRANCH, (7, 0), 2, 16_000, 4),
        ]
        assert multicast.generated == 3

    def test_multicast_off_by_default(self, workload):
        assert workload.multicast is False
        assert len(workload.packets_for_generation(FakePE(7, SOURCE))) \
            == 1


class TestStats:
    def test_stats_snapshot(self, workload):
        pe = FakePE(7, SOURCE)
        workload.packets_for_generation(pe)
        stats = workload.stats()
        assert stats["generated"] == 1
        assert stats["joins"] == 0
        assert BRANCH in stats["executions_by_task"]

    def test_executions_counted_per_task(self, workload):
        pe = FakePE(3, BRANCH)
        workload.packets_after_execution(
            pe, Packet(7, BRANCH, instance=(7, 0), branch=0)
        )
        assert workload.executions_by_task[BRANCH] == 1
