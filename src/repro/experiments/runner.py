"""Run harness: single runs, seeded batches, and their analyses.

``run_single`` executes one Centurion simulation (model × seed × fault
count) and extracts everything Tables I/II and Figure 4 need;
``iter_runs`` streams job tuples through an optional multiprocessing
pool (chunked ``imap``, ordered, failures wrapped with their cell
context), and ``run_batch`` is the thin seed-sweep wrapper the campaign
engine (:mod:`repro.campaign`) and the benches share.
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
    """A run failed; carries its ``(model, seed, faults)`` cell context.

    Raised on the *collecting* side of a sweep, so a failing seed inside
    a worker process reports which cell died instead of a bare pickled
    traceback out of the pool.  ``details`` holds the worker's formatted
    traceback.
    """

    def __init__(self, model, seed, faults, details):
        super().__init__(
            "run failed (model={!r}, seed={}, faults={}):\n{}".format(
                model, seed, faults, details
            )
        )
        self.model = model
        self.seed = seed
        self.faults = faults
        self.details = details


class _WorkerFailure:
    """Picklable failure payload returned from a pool worker."""

    __slots__ = ("model", "seed", "faults", "details")

    def __init__(self, model, seed, faults, details):
        self.model = model
        self.seed = seed
        self.faults = faults
        self.details = details


def _run_single_star(job):
    try:
        return run_single(*job)
    except Exception:
        return _WorkerFailure(job[0], job[1], job[2], traceback.format_exc())


def _checked(outcome):
    if isinstance(outcome, _WorkerFailure):
        raise RunError(
            outcome.model, outcome.seed, outcome.faults, outcome.details
        )
    return outcome


def default_processes():
    """Worker-count default: REPRO_PROCESSES env, then ``os.cpu_count``."""
    env = os.environ.get("REPRO_PROCESSES")
    if env:
        return int(env)
    return os.cpu_count() or 1


def iter_runs(jobs, processes=None, chunksize=None):
    """Yield ``run_single`` results for job tuples, in job order.

    Each job is ``(model, seed, faults, config, metric, keep_series)``.
    ``processes``: ``None``/0/1 runs sequentially; larger values shard
    the jobs across a multiprocessing pool with chunked ``imap`` —
    results stream back in order without materialising the whole sweep
    in the pool at once, so callers can checkpoint as cells finish.
    Failures surface as :class:`RunError` with the cell context.
    """
    if processes is None:
        processes = int(os.environ.get("REPRO_PROCESSES", "0"))
    jobs = list(jobs)
    if processes and processes > 1 and len(jobs) > 1:
        import multiprocessing

        if chunksize is None:
            chunksize = max(1, min(16, len(jobs) // (processes * 4) or 1))
        with multiprocessing.Pool(processes) as pool:
            for outcome in pool.imap(_run_single_star, jobs,
                                     chunksize=chunksize):
                yield _checked(outcome)
    else:
        for job in jobs:
            yield _checked(_run_single_star(job))


def run_batch(model_name, seeds, faults=0, config=None,
              metric=DEFAULT_METRIC, processes=None, keep_series=False):
    """Independent runs over ``seeds``; returns a list of RunResults.

    Thin compatibility wrapper over :func:`iter_runs` (each run is
    single-threaded and deterministic per seed, so ordering is
    preserved).  The REPRO_PROCESSES environment variable supplies the
    ``processes`` default.
    """
    jobs = [
        (model_name, seed, faults, config, metric, keep_series)
        for seed in seeds
    ]
    return list(iter_runs(jobs, processes=processes))


def default_seeds(count, base=1000):
    """The canonical seed list used by the benchmark harness."""
    return [base + i for i in range(count)]
