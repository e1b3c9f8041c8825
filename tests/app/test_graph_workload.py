"""Behavioural tests for the generalised workload interpreter.

Exercises graph shapes beyond the paper's fork-join graph (which
``tests/app/test_workload.py`` covers) — pipelines, fan-outs,
all-to-all shuffles with fan-in 4 — plus the time-varying arrival gates
and stochastic service distributions.
"""

import pytest

from repro.app.workloads import (
    GraphWorkload,
    WorkloadGraphError,
    capacity_report,
    compile_workload,
    pipeline_spec,
    shuffle_spec,
)
from repro.noc.packet import Packet
from repro.sim.engine import Simulator


class FakePE:
    def __init__(self, node_id, task_id, gen_seq=0):
        self.node_id = node_id
        self.task_id = task_id
        self._gen_seq = gen_seq


def _workload(ref, seed=0):
    return GraphWorkload(Simulator(seed=seed), compile_workload(ref))


def _burst_spec(**arrival_overrides):
    arrival = {
        "period_us": 1_000, "shape": "burst",
        "burst_ticks": 2, "idle_ticks": 1,
    }
    arrival.update(arrival_overrides)
    return {
        "name": "burst-line",
        "tasks": [
            {"id": 1, "service_us": 100, "arrival": arrival,
             "downstream": [2]},
            {"id": 2, "service_us": 400},
        ],
    }


class TestPipeline:
    def test_stage_edges_preserve_branch_verbatim(self):
        workload = _workload(pipeline_spec(stages=3))
        pe = FakePE(3, 2)
        incoming = Packet(1, 2, instance=(1, 5), branch=0)
        (out,) = workload.packets_after_execution(pe, incoming)
        assert out.dest_task == 3
        assert out.instance == (1, 5)
        assert out.branch == 0

    def test_terminal_executions_count_as_joins(self):
        workload = _workload(pipeline_spec(stages=3))
        assert workload._terminal_joins
        assert list(workload.compiled.sink_ids) == [3]
        pe = FakePE(9, 3)
        assert workload.packets_after_execution(
            pe, Packet(3, 3, instance=(1, 0), branch=0)
        ) == []
        assert workload.joins == 1
        assert workload.sink_task_executions() == 1


class TestFanOutAndFanIn:
    def test_fanout_edge_expands_into_contiguous_branches(self):
        workload = _workload({
            "name": "fan4",
            "tasks": [
                {"id": 1, "service_us": 100, "arrival": 1_000,
                 "downstream": [{"task": 2, "fanout": 4}]},
                {"id": 2, "service_us": 400, "downstream": [3]},
                {"id": 3, "service_us": 100, "join": True},
            ],
        })
        pe = FakePE(7, 1)
        emitted = []
        for seq in range(8):
            pe._gen_seq = seq
            (packet,) = workload.packets_for_generation(pe)
            emitted.append((packet.instance, packet.branch))
        assert emitted == [
            ((7, 0), 0), ((7, 0), 1), ((7, 0), 2), ((7, 0), 3),
            ((7, 1), 0), ((7, 1), 1), ((7, 1), 2), ((7, 1), 3),
        ]
        assert workload.compiled.in_width[3] == 4

    def test_shuffle_join_waits_for_all_four_branches(self):
        workload = _workload(shuffle_spec(width=2))
        (join_id,) = workload.spec.join_ids()
        pe = FakePE(9, join_id)
        for branch in range(3):
            assert workload.packets_after_execution(
                pe, Packet(3, join_id, instance=(1, 0), branch=branch)
            ) == []
            assert workload.joins == 0
        workload.packets_after_execution(
            pe, Packet(3, join_id, instance=(1, 0), branch=3)
        )
        assert workload.joins == 1
        assert workload.pending_join_count == 0

    def test_shuffle_reducers_renumber_branches_for_the_join(self):
        compiled = compile_workload(shuffle_spec(width=2))
        workload = GraphWorkload(Simulator(seed=0), compiled)
        (join_id,) = compiled.spec.join_ids()
        reducer_ids = sorted(
            tid for tid, edges in compiled.out_edges.items()
            if any(e.dest == join_id for e in edges)
        )
        seen = set()
        for reducer in reducer_ids:
            for old_branch in range(compiled.in_width[reducer]):
                (out,) = workload.packets_after_execution(
                    FakePE(5, reducer),
                    Packet(2, reducer, instance=(1, 0), branch=old_branch),
                )
                assert out.dest_task == join_id
                seen.add(out.branch)
        assert seen == {0, 1, 2, 3}


class TestArrivalGating:
    def test_burst_gates_ticks_but_keeps_instances_dense(self):
        workload = _workload(_burst_spec())
        pe = FakePE(4, 1)
        emitted = []
        for _tick in range(6):
            packets = workload.packets_for_generation(pe)
            if packets:
                # The real PE bumps its sequence only on emitting ticks.
                pe._gen_seq += 1
            emitted.append([p.instance for p in packets])
        assert emitted == [
            [(4, 0)], [(4, 1)], [], [(4, 2)], [(4, 3)], [],
        ]

    def test_burst_makes_no_rng_draws(self):
        workload = _workload(_burst_spec())
        pe = FakePE(4, 1)
        for _tick in range(6):
            if workload.packets_for_generation(pe):
                pe._gen_seq += 1
        assert workload._arrival_rng is None
        assert workload._service_rng is None

    def test_diurnal_gate_is_seeded_and_deterministic(self):
        spec = _burst_spec()
        spec["tasks"][0]["arrival"] = {
            "period_us": 1_000, "shape": "diurnal", "cycle_us": 50_000,
        }
        gates = []
        for _repeat in range(2):
            workload = _workload(spec, seed=11)
            pe = FakePE(4, 1)
            run = []
            for _tick in range(40):
                packets = workload.packets_for_generation(pe)
                if packets:
                    pe._gen_seq += 1
                run.append(bool(packets))
            gates.append(run)
        assert gates[0] == gates[1]
        assert any(gates[0]) and not all(gates[0])


class TestServiceDistributions:
    def _line(self, **task_fields):
        tasks = [
            {"id": 1, "service_us": 100, "arrival": 1_000,
             "downstream": [2]},
            {"id": 2, "service_us": 4_000},
        ]
        tasks[1].update(task_fields)
        return _workload({"name": "dist", "tasks": tasks}, seed=3)

    def test_fixed_service_draws_nothing(self):
        workload = self._line()
        assert workload.service_time(2) == 4_000
        assert workload._service_rng is None

    def test_uniform_service_stays_within_spread(self):
        workload = self._line(service_dist="uniform", service_spread=0.25)
        for _ in range(50):
            value = workload.service_time(2)
            assert 3_000 <= value <= 5_000

    def test_exponential_service_is_positive(self):
        workload = self._line(service_dist="exponential")
        values = [workload.service_time(2) for _ in range(50)]
        assert all(v >= 1.0 for v in values)
        assert len(set(values)) > 1


class TestCompileErrors:
    def test_pass_through_cycle_rejected(self):
        with pytest.raises(WorkloadGraphError, match="cycle"):
            compile_workload({
                "name": "loop",
                "tasks": [
                    {"id": 1, "service_us": 100, "arrival": 1_000,
                     "downstream": [2]},
                    {"id": 2, "service_us": 100, "downstream": [3]},
                    {"id": 3, "service_us": 100, "downstream": [2]},
                ],
            })

    def test_join_fed_by_two_sources_rejected(self):
        with pytest.raises(WorkloadGraphError, match="source"):
            compile_workload({
                "name": "mixed",
                "tasks": [
                    {"id": 1, "service_us": 100, "arrival": 1_000,
                     "downstream": [3]},
                    {"id": 2, "service_us": 100, "arrival": 2_000,
                     "downstream": [3]},
                    {"id": 3, "service_us": 100, "join": True},
                ],
            })


class TestCapacityReport:
    def test_over_capacity_task_flagged(self):
        compiled = compile_workload({
            "name": "hot",
            "tasks": [
                {"id": 1, "service_us": 100, "arrival": 1_000,
                 "downstream": [2]},
                {"id": 2, "service_us": 50_000},
            ],
        })
        _rows, warnings = capacity_report(compiled, num_nodes=16)
        assert any("over capacity" in w for w in warnings)

    def test_unreachable_task_flagged(self):
        compiled = compile_workload({
            "name": "island",
            "tasks": [
                {"id": 1, "service_us": 100, "arrival": 1_000},
                {"id": 2, "service_us": 100},
            ],
        })
        _rows, warnings = capacity_report(compiled, num_nodes=16)
        assert any("never receives work" in w for w in warnings)

    def test_transient_burst_peak_flagged(self):
        compiled = compile_workload({
            "name": "spiky",
            "tasks": [
                {"id": 1, "service_us": 100,
                 "arrival": {"period_us": 1_000, "shape": "burst",
                             "burst_ticks": 1, "idle_ticks": 3},
                 "downstream": [2]},
                {"id": 2, "service_us": 16_000},
            ],
        })
        rows, warnings = capacity_report(compiled, num_nodes=16)
        by_task = {row["task"]: row for row in rows}
        assert by_task[2]["utilization"] <= 1.0
        assert by_task[2]["peak_utilization"] > 1.0
        assert any("transiently over capacity" in w for w in warnings)

    def test_clean_spec_has_no_warnings(self):
        compiled = compile_workload("fork_join")
        _rows, warnings = capacity_report(compiled, num_nodes=16)
        assert warnings == []
