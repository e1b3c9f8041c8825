"""Tests for task graphs."""

import pytest

from repro.app.taskgraph import Task, TaskGraph
from repro.app.workloads import compile_workload, fork_join_spec


class TestTask:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Task(1, "x", weight=-1)


class TestTaskGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph([Task(1, "a"), Task(1, "b")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph([])

    def test_lookup(self):
        graph = TaskGraph([Task(1, "a"), Task(2, "b")])
        assert graph.task(2).name == "b"
        assert graph.task_ids() == [1, 2]


class TestForkJoinGraph:
    """The paper's Figure 3 graph, as the builtin ``fork_join`` spec
    compiles it."""

    def test_paper_ratio_1_3_1(self):
        graph = compile_workload(fork_join_spec()).graph
        assert graph.weights() == {1: 1, 2: 3, 3: 1}
        assert [graph.task(t).name for t in graph.task_ids()] == [
            "task1-source", "task2-branch", "task3-join",
        ]

    def test_paper_generation_period(self):
        assert fork_join_spec().task(1).arrival.period_us == 4_000

    def test_pipeline_wiring(self):
        compiled = compile_workload(fork_join_spec())
        assert {
            task: [edge.dest for edge in edges]
            for task, edges in compiled.out_edges.items()
        } == {1: [2], 2: [3], 3: [1]}
        # The join result feeds back to the source task (closed loop).
        assert compiled.spec.join_ids() == [3]

    def test_fork_width_sets_branch_weight(self):
        compiled = compile_workload(fork_join_spec(fork_width=4))
        assert compiled.graph.weights()[2] == 4
        assert compiled.in_width[3] == 4

    def test_only_source_generates(self):
        assert fork_join_spec().source_ids() == [1]
