"""Application layer: task graphs, workloads, mappings and metrics.

The paper's workload is the Figure 3 fork-join task graph ("out-tree and an
in-tree phase ... the ratio experimented with is 1:3:1"): task 1 sources
fork work into three task-2 branches which join at task 3, and the goal is
to maximise the number of concurrently-sustained instances of this graph.
It is the builtin ``fork_join`` spec of the declarative workload library
(:mod:`repro.app.workloads`), run — like every other spec — by
:class:`GraphWorkload`.
"""

from repro.app.metrics import MetricsSampler, MetricsSeries
from repro.app.taskgraph import Task, TaskGraph
from repro.app.workloads import (
    GraphWorkload,
    WorkloadSpec,
    load_workload,
)

__all__ = [
    "Task",
    "TaskGraph",
    "GraphWorkload",
    "WorkloadSpec",
    "load_workload",
    "MetricsSampler",
    "MetricsSeries",
]
