"""Run harness: single runs and the one sweep path.

``run_single`` executes one Centurion simulation (model × seed × fault
count) and extracts everything Tables I/II and Figure 4 need.
``run_cell`` runs one campaign cell
(:class:`~repro.campaign.spec.RunDescriptor`) through it, and
``iter_runs`` streams cells through an optional multiprocessing pool
(chunked ``imap``, ordered, a failure raised as :class:`RunError`
naming its cell).  :func:`repro.campaign.executor.run_campaign` drives
``iter_runs`` for the CLI's sweeps and the paper benches, and
``campaign serve`` runs its cells through ``run_cell``.  This module
imports nothing from :mod:`repro.campaign`.
"""

import dataclasses
import os
import traceback

from repro.experiments.settling import recovery_analysis, settling_analysis
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig

#: Metric the tables quantify: completed fork-join instances per window —
#: the paper's "total many-core throughput of task 3 nodes".  Figure 4's
#: panels additionally plot ``active_nodes`` (its "Nodes Active" axis).
DEFAULT_METRIC = "joins"


@dataclasses.dataclass
class RunResult:
    """Per-run extract used by the tables and figures."""

    model: str
    seed: int
    faults: int
    settling_time_ms: float
    settled_performance: float
    recovery_time_ms: float
    recovered_performance: float
    series: object
    app_stats: dict
    noc_stats: dict
    total_switches: int
    #: Name of the fault scenario driving the run (None = legacy counts).
    scenario: str = None
    #: Closed-loop dynamics extract (0 / None on dynamics-free runs).
    throttle_events: int = 0
    autonomous_recoveries: int = 0
    deadlock_drops: int = 0
    governor: str = None
    #: Name of the declared workload driving the run (None = a
    #: config-only cell: the builtin fork_join spec built from the
    #: config's task-graph fields).
    workload: str = None

    def as_row(self):
        """Flat dict of the scalar fields (CSV/JSON row).

        The ``scenario`` column appears only on scenario-driven runs,
        ``workload`` only on declarative-workload runs, and the dynamics
        columns (``governor``, ``throttle_events``,
        ``autonomous_recoveries``, ``deadlock_drops``) only when their
        machinery actually fired — so legacy rows stay byte-identical
        to earlier releases (stores and downstream CSV diffs included).
        """
        row = {
            "model": self.model,
            "seed": self.seed,
            "faults": self.faults,
            "settling_time_ms": self.settling_time_ms,
            "settled_performance": self.settled_performance,
            "recovery_time_ms": self.recovery_time_ms,
            "recovered_performance": self.recovered_performance,
            "total_switches": self.total_switches,
        }
        if self.scenario is not None:
            row["scenario"] = self.scenario
        if self.workload is not None:
            row["workload"] = self.workload
        if self.governor is not None:
            row["governor"] = self.governor
        if self.throttle_events:
            row["throttle_events"] = self.throttle_events
        if self.autonomous_recoveries:
            row["autonomous_recoveries"] = self.autonomous_recoveries
        if self.deadlock_drops:
            row["deadlock_drops"] = self.deadlock_drops
        return row


def run_single(model_name, seed, faults=0, config=None,
               metric=DEFAULT_METRIC, keep_series=True, scenario=None,
               workload=None):
    """One full experiment run.

    Settling is measured from t=0 up to the fault time (or to the horizon
    when no faults are injected); recovery is measured from the fault time
    to the horizon.  Without faults the recovery fields mirror the settled
    state so downstream tables can treat the 0-fault row uniformly.

    ``scenario`` (a :class:`~repro.platform.scenario.FaultScenario`)
    replaces the legacy ``faults`` count with a declarative fault
    composition; the settling/recovery boundary is then the scenario's
    *first* injection.  A boundary leaving no measurable post-fault
    window (a fault at the exact run horizon) degrades gracefully: the
    recovery fields mirror the settled state, like a zero-fault run.

    ``workload`` (a :class:`~repro.app.workloads.WorkloadSpec`, dict,
    built-in name, or JSON file path) declares the application; leaving
    it ``None`` runs the config's fork-join graph as a config-only cell,
    whose row carries no ``workload`` name and stays byte-identical to
    the pre-workload platform.
    """
    config = config if config is not None else PlatformConfig()
    platform = CenturionPlatform(
        config, model_name=model_name, seed=seed, workload=workload
    )
    boundary_us = None
    if scenario is not None:
        if faults:
            raise ValueError("give either 'faults' or 'scenario', not both")
        scenario = platform.inject_scenario(scenario)
        boundary_us = scenario.first_fault_us()
    elif faults > 0:
        platform.inject_faults(faults)
        boundary_us = config.fault_time_us
    series = platform.run()
    boundary_ms = (
        boundary_us / 1000.0 if boundary_us is not None else None
    )
    # A fault at t=0 leaves no pre-fault window at all: settling is then
    # measured over the whole (faulted) run, like a zero-fault row.
    settle_end = boundary_ms if boundary_ms else None
    try:
        settling_time, settled_perf = settling_analysis(
            series, metric=metric, end_ms=settle_end
        )
    except ValueError:
        # Fewer than two samples before the first fault (scenario
        # injecting within the first metric windows): same degradation.
        settling_time, settled_perf = settling_analysis(
            series, metric=metric
        )
    if boundary_ms is not None:
        try:
            recovery_time, recovered_perf = recovery_analysis(
                series, boundary_ms, metric=metric
            )
        except ValueError:
            # Fewer than two samples after the fault (injection at or
            # beyond the effective horizon): nothing to measure.
            recovery_time, recovered_perf = 0.0, settled_perf
    else:
        recovery_time, recovered_perf = 0.0, settled_perf
    if scenario is not None:
        # Scenario rows report the node faults actually injected (the
        # declared shape lives in the scenario itself); a uniform burst
        # scenario therefore rows up exactly like its legacy-count twin.
        faults = len(platform.faults.victims)
    return RunResult(
        model=platform.model_name,
        seed=seed,
        faults=faults,
        settling_time_ms=settling_time,
        settled_performance=settled_perf,
        recovery_time_ms=recovery_time,
        recovered_performance=recovered_perf,
        series=series if keep_series else None,
        app_stats=platform.workload.stats(),
        noc_stats=dict(platform.network.stats),
        total_switches=platform.total_task_switches(),
        scenario=scenario.name if scenario is not None else None,
        throttle_events=platform.dynamics.throttle_events,
        autonomous_recoveries=platform.dynamics.autonomous_recoveries,
        deadlock_drops=platform.network.stats.get("dropped_deadlock", 0),
        governor=(
            config.dvfs_governor
            if config.dvfs_governor != "none" else None
        ),
        workload=(
            platform.workload_spec.name
            if platform.workload_spec is not None else None
        ),
    )


class RunError(RuntimeError):
    """A cell failed; carries the failing cell's ``descriptor``.

    Raised on the *collecting* side of a sweep, so a cell that dies in a
    worker process reports which cell it was (its
    :meth:`~repro.campaign.spec.RunDescriptor.cell`, scenario and
    workload names included) instead of a bare pickled traceback out of
    the pool.  ``details`` holds the worker's formatted traceback.
    """

    def __init__(self, descriptor, details):
        super().__init__(
            "run failed for cell {}:\n{}".format(descriptor.cell(), details)
        )
        self.descriptor = descriptor
        self.details = details


def run_cell(descriptor):
    """Run one campaign cell, a :class:`~repro.campaign.spec.RunDescriptor`.

    The one place a descriptor becomes a :func:`run_single` call: the
    sweeps of :func:`iter_runs` and ``campaign serve``'s default
    ``run_fn`` both execute cells through it.
    """
    return run_single(*descriptor.job())


def _run_or_traceback(descriptor):
    """The cell's result, or its formatted traceback (a ``str``) if it
    raises: a pool worker returns the failure for the parent to raise."""
    try:
        return run_cell(descriptor)
    except Exception:
        return traceback.format_exc()


def _checked(descriptor, outcome):
    if isinstance(outcome, str):
        raise RunError(descriptor, outcome)
    return outcome


def _env_processes(default):
    """``REPRO_PROCESSES`` as an int; ``default`` when unset or empty."""
    env = os.environ.get("REPRO_PROCESSES")
    return int(env) if env else default


def default_processes():
    """Worker-count default: REPRO_PROCESSES env, then ``os.cpu_count``."""
    return _env_processes(os.cpu_count() or 1)


def iter_runs(descriptors, processes=None, chunksize=None):
    """Yield each cell's :class:`RunResult`, in descriptor order.

    ``descriptors`` are :class:`~repro.campaign.spec.RunDescriptor`
    cells, each run by :func:`run_cell`.  ``processes``: ``None`` reads
    ``REPRO_PROCESSES`` (sequential when unset or empty); 0/1 runs
    sequentially; larger values shard the cells across a
    multiprocessing pool with chunked ``imap`` — results stream back in
    order without materialising the whole sweep in the pool at once, so
    callers can checkpoint as cells finish.  A failing cell raises
    :class:`RunError` naming its descriptor.
    """
    if processes is None:
        processes = _env_processes(0)
    descriptors = list(descriptors)
    if processes and processes > 1 and len(descriptors) > 1:
        import multiprocessing

        if chunksize is None:
            chunksize = max(
                1, min(16, len(descriptors) // (processes * 4) or 1)
            )
        with multiprocessing.Pool(processes) as pool:
            outcomes = pool.imap(
                _run_or_traceback, descriptors, chunksize=chunksize
            )
            for descriptor, outcome in zip(descriptors, outcomes):
                yield _checked(descriptor, outcome)
    else:
        for descriptor in descriptors:
            yield _checked(descriptor, _run_or_traceback(descriptor))


def default_seeds(count, base=1000):
    """The canonical seed list used by the benchmark harness."""
    return [base + i for i in range(count)]
