"""Declarative workload library.

This package makes the application a sweepable axis, the way faults
became one with :class:`~repro.platform.scenario.FaultScenario`:

* :mod:`~repro.app.workloads.spec` — the JSON-loadable, content-hashed
  :class:`WorkloadSpec` (tasks, edges with fanout, joins, per-task
  service distributions) plus built-in specs (``fork_join`` — the
  paper's Figure 3 graph, which config-only cells run — ``pipeline3``,
  ``shuffle2x2``) and worked JSON examples;
* :mod:`~repro.app.workloads.arrivals` — time-varying arrival shapes
  (constant / burst trains / diurnal curves) drawn from the dedicated
  ``workload-arrival`` RNG stream;
* :mod:`~repro.app.workloads.compiler` — spec -> executable graph
  program (join widths, branch numbering, cycle validation,
  steady-state rates for the capacity lint);
* :mod:`~repro.app.workloads.interpreter` — :class:`GraphWorkload`,
  the platform's one application runtime (its docstring holds the
  PE-facing contract);
* :mod:`~repro.app.workloads.policies` — the mapping policies
  (``random`` / ``balanced`` / ``clustered`` / ``load_aware``) and the
  ``fault-aware`` recovery-remap hook on the dynamics seam.

Entry points: ``run --workload FILE`` and the ``workload FILE`` lint in
:mod:`repro.experiments.cli`; the ``workloads:`` campaign axis in
:mod:`repro.campaign.spec` (hash contract: a cell's key embeds
``WorkloadSpec.canonical()`` only when a workload is present, so every
pre-workload cell key is byte-conserved).
"""

from repro.app.workloads.arrivals import (
    ARRIVAL_SHAPES,
    ARRIVAL_STREAM,
    SERVICE_STREAM,
    ArrivalSpec,
)
from repro.app.workloads.compiler import (
    CompiledWorkload,
    WorkloadGraphError,
    capacity_report,
    compile_workload,
)
from repro.app.workloads.interpreter import GraphWorkload
from repro.app.workloads.policies import (
    MAPPING_POLICIES,
    RECOVERY_REMAPS,
    apply_mapping,
    mapping_policy,
    remap_for_recovery,
)
from repro.app.workloads.spec import (
    BUILTIN_WORKLOADS,
    EdgeSpec,
    TaskSpec,
    WorkloadSpec,
    fork_join_spec,
    load_workload,
    pipeline_spec,
    shuffle_spec,
)

__all__ = [
    "ARRIVAL_SHAPES",
    "ARRIVAL_STREAM",
    "SERVICE_STREAM",
    "ArrivalSpec",
    "BUILTIN_WORKLOADS",
    "CompiledWorkload",
    "EdgeSpec",
    "GraphWorkload",
    "MAPPING_POLICIES",
    "RECOVERY_REMAPS",
    "TaskSpec",
    "WorkloadGraphError",
    "WorkloadSpec",
    "apply_mapping",
    "capacity_report",
    "compile_workload",
    "fork_join_spec",
    "load_workload",
    "mapping_policy",
    "pipeline_spec",
    "remap_for_recovery",
    "shuffle_spec",
]
