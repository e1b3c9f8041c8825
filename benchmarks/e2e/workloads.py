"""The four workloads and the measurements they take.

Each workload class is built from a size (``FULL`` for the benchmark,
``TINY`` for the tests), a seed base, a measuring time in seconds and a
scratch directory inside the checkout.  ``run()`` measures the
end-to-end metrics with tracing off.  ``trace(spans)`` takes a fixed
subset twice, untraced and then profiled, and returns the per-layer
metrics.  Every timing is host time.  Simulated statistics enter only
the correctness digests and, for the two simulation workloads, the
per-operation normalisation (:func:`modelled_ops`).

An operation fails when it raises (``run_single``'s errors included),
when its digest differs from ``digests.json`` at the default seed or
from an earlier execution of the same cell, or when a campaign or
tenant ends with the wrong counts or state.
"""

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import deque

from repro.app.workloads import load_workload
from repro.campaign.client import CampaignClient, ServeError
from repro.campaign.executor import run_campaign
from repro.campaign.serve import CampaignServer
from repro.campaign.spec import CampaignSpec, RunDescriptor
from repro.experiments import runner
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

from . import DEFAULT_SEED, HERE, ROOT, SRC, layers

DIGESTS_JSON = os.path.join(HERE, "digests.json")

#: The declarative burst application of ``examples/workloads/burst.json``,
#: held here so that editing the example cannot change the benchmark.
BURST_WORKLOAD = {
    "name": "burst_fan4",
    "tasks": [
        {"id": 1, "service_us": 500,
         "arrival": {"period_us": 3000, "shape": "burst",
                     "burst_ticks": 8, "idle_ticks": 24},
         "downstream": [{"task": 2, "fanout": 4}]},
        {"id": 2, "service_us": 6000, "weight": 4,
         "downstream": [{"task": 3}]},
        {"id": 3, "service_us": 1200, "join": True},
    ],
}

#: Transient node wave, degraded links and repeated thermal storms.
SPARSE_SCENARIO = {
    "name": "bench-sparse",
    "events": [
        {"kind": "node", "at_us": 200_000, "count": 4,
         "duration_us": 100_000, "repeats": 3, "period_us": 200_000},
        {"kind": "link_degrade", "at_us": 300_000, "count": 4,
         "factor": 3.0, "duration_us": 200_000},
        {"kind": "thermal_storm", "at_us": 100_000, "count": 8,
         "heat_c": 40.0, "repeats": 4, "period_us": 200_000},
    ],
}

#: Counters read from public APIs, summed over a traced run.
COUNTERS = (
    "sim.dispatched", "noc.sent", "noc.hops", "noc.reroutes",
    "noc.delivered", "noc.dropped", "node.executions", "app.generated",
    "app.joins", "core.task_switches", "platform.throttle_events",
    "platform.autonomous_recoveries", "campaign.executed",
    "campaign.cached", "campaign.deduped", "serve.executed",
    "serve.deduped",
)

#: Cumulative profiled time inside ``(module, owner, function)`` calls.
PROFILED_CALLS = {
    "campaign.key_s": [("campaign/spec", "RunDescriptor", "key")],
    "campaign.store_append_s": [
        ("campaign/store", "ResultStore", "save_record"),
    ],
    "campaign.store_scan_s": [
        ("campaign/store", "ResultStore", "_scan_file"),
        ("campaign/index", "StoreIndex", "refresh"),
    ],
}

#: Per-layer timings only some workloads exercise; 0 elsewhere.
WORKLOAD_TIMINGS = (
    "campaign.parent_wait_s", "serve.cell_exec_s.p50",
    "serve.queue_wait_s.p50", "serve.submit_s.p50",
    "serve.status_s.p50", "bench.generator_lag_s.max",
)


# -- measurement helpers ------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """One run: its metrics, and the operations attempted and failed."""

    metrics: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    notes: list = dataclasses.field(default_factory=list)

    def check(self, ok, message):
        """Count one failed operation unless ``ok``."""
        if not ok:
            self.failed += 1
            self.errors.append(message)


def cpu_seconds(who=resource.RUSAGE_SELF):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def total_cpu_seconds():
    """CPU of this process plus its reaped children (pool workers)."""
    return cpu_seconds() + cpu_seconds(resource.RUSAGE_CHILDREN)


def peak_rss_mb():
    """Peak resident set of this process or any reaped child, in MB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def median_setup(build, items):
    """Median seconds of ``build(item)`` over ``items``.

    The heap is collected before each sample: set-up allocates heavily,
    and garbage left by the previous sample would otherwise put a
    collector pass into a random subset of the samples.
    """
    samples = []
    for item in items:
        gc.collect()
        started = time.perf_counter()
        build(item)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else (
        values[0] if values else 0.0
    )


def p50(values):
    return statistics.median(values) if values else 0.0


def digest(*parts):
    """Short SHA-256 of a canonical JSON form (JSON stringifies int keys,
    so a record read back from a store digests like the live result)."""
    canonical = json.dumps(
        json.loads(json.dumps(parts)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def result_rows(results):
    return [[r.as_row(), r.noc_stats, r.app_stats] for r in results]


#: Modelled operations in one "op" of the simulation workloads.
OPS_PER_OP = 100_000


def modelled_ops(result):
    """NoC hops + deliveries + PE executions of one cell.

    A cell's host time scales with how much the seed makes the model
    do (one seed's cell can cost three times another's), so timings are
    compared per modelled operation.  These counts are simulated
    statistics, identical across any change that keeps the simulation
    bit-identical, unlike kernel events, which a faster engine may merge.
    """
    noc = result.noc_stats
    executions = sum(result.app_stats["executions_by_task"].values())
    return noc["hops"] + noc["delivered"] + executions


def reference_digests(workload):
    """Pinned digests of ``workload`` at :data:`DEFAULT_SEED`."""
    try:
        with open(DIGESTS_JSON) as handle:
            return json.load(handle).get(workload, {})
    except FileNotFoundError:
        return {}


@contextlib.contextmanager
def profiled(profile):
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


@contextlib.contextmanager
def platform_probe():
    """Yield ``take()``, returning the platform the calling thread's last
    ``run_single`` built.

    ``run_single`` keeps its platform private, and the kernel's public
    ``dispatched_events`` counter lives on it, so while the context is
    open the runner builds a subclass that records each instance.
    """
    local = threading.local()
    original = runner.CenturionPlatform

    class Recorded(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            local.platform = self

    def take():
        platform = getattr(local, "platform", None)
        local.platform = None
        return platform

    runner.CenturionPlatform = Recorded
    try:
        yield take
    finally:
        runner.CenturionPlatform = original


class Spans:
    """Spans ``{id, name, start, end, parent, trace_id}`` kept in memory.

    ``start``/``end`` are seconds since the tracer was made; ``parent``
    is the id of the enclosing span.  Written as NDJSON by :meth:`write`.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.records = []
        self._ids = itertools.count(1)

    def open(self, name, parent=None, trace_id=None, start=None):
        """Start a span (at ``start``, a ``perf_counter`` time, or now)."""
        record = {
            "id": next(self._ids), "name": name, "parent": parent,
            "trace_id": trace_id, "end": None,
            "start": (time.perf_counter() if start is None else start)
            - self.origin,
        }
        self.records.append(record)
        return record

    def close(self, record, end=None):
        record["end"] = (
            time.perf_counter() if end is None else end
        ) - self.origin

    @contextlib.contextmanager
    def span(self, name, parent=None, trace_id=None):
        record = self.open(name, parent, trace_id)
        try:
            yield record["id"]
        finally:
            self.close(record)

    def write(self, path):
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def new_counts():
    return dict.fromkeys(COUNTERS, 0)


def count_cell(counts, result, platform=None):
    """Add one cell's public counters (``platform`` for kernel events)."""
    noc, app = result.noc_stats, result.app_stats
    counts["noc.sent"] += noc["sent"]
    counts["noc.hops"] += noc["hops"]
    counts["noc.reroutes"] += noc["reroutes"]
    counts["noc.delivered"] += noc["delivered"]
    counts["noc.dropped"] += sum(
        value for name, value in noc.items() if name.startswith("dropped_")
    )
    counts["node.executions"] += sum(app["executions_by_task"].values())
    counts["app.generated"] += app["generated"]
    counts["app.joins"] += app["joins"]
    counts["core.task_switches"] += result.total_switches
    counts["platform.throttle_events"] += result.throttle_events
    counts["platform.autonomous_recoveries"] += result.autonomous_recoveries
    if platform is not None:
        counts["sim.dispatched"] += platform.sim.dispatched_events


def per_layer(profiles, counts, timings, traced_cpu, untraced_cpu):
    """Every per-layer metric of a traced run."""
    stats = layers.merge(profiles)
    metrics = layers.layer_metrics(stats)
    metrics.update(counts)
    metrics["noc.reroutes_per_sent"] = (
        counts["noc.reroutes"] / counts["noc.sent"] if counts["noc.sent"]
        else 0.0
    )
    served = counts["serve.executed"] + counts["serve.deduped"]
    metrics["serve.dedup_ratio"] = (
        counts["serve.deduped"] / served if served else 0.0
    )
    for name, calls in PROFILED_CALLS.items():
        metrics[name] = sum(
            layers.cumulative(stats, "repro/{}.py".format(module), function)
            for module, _owner, function in calls
        )
    metrics.update(dict.fromkeys(WORKLOAD_TIMINGS, 0.0))
    metrics.update(timings)
    metrics["bench.trace_overhead"] = traced_cpu / untraced_cpu
    return metrics


# -- paper_cells / sparse_dynamics ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class CellsSize:
    config: PlatformConfig
    models: tuple
    faults: tuple = (0,)
    #: Groups in the grid; a group is every model x fault count once.
    groups: int = 4
    scenario: dict = None
    workload: dict = None
    setup_samples: int = 48


class CellsWorkload:
    """Sequential ``run_single(keep_series=False)`` cells.

    Every cell has its own seed, because a seed changes a cell's cost
    more than the model does; cells run in whole groups (every model x
    fault count once), so a time-bounded run always measures the same
    model mix.
    """

    name = None
    FULL = None
    TINY = None

    def __init__(self, size, seed, seconds, workdir):
        self.size = size
        self.seed = seed
        self.seconds = seconds
        self.scenario = (
            FaultScenario.from_dict(size.scenario) if size.scenario else None
        )
        self.app = load_workload(size.workload) if size.workload else None
        self.reference = (
            reference_digests(self.name)
            if seed == DEFAULT_SEED and size == self.FULL else {}
        )
        self._seen = {}

    def groups(self):
        combos = [
            (model, faults)
            for model in self.size.models for faults in self.size.faults
        ]
        return [
            [(model, self.seed + i * len(combos) + j, faults)
             for j, (model, faults) in enumerate(combos)]
            for i in range(self.size.groups)
        ]

    def build(self, cell):
        """The set-up a cell pays before simulating."""
        model, seed, faults = cell
        platform = CenturionPlatform(
            self.size.config, model_name=model, seed=seed, workload=self.app
        )
        if self.scenario is not None:
            platform.inject_scenario(self.scenario)
        elif faults:
            platform.inject_faults(faults)
        return platform

    def run_cell(self, cell):
        model, seed, faults = cell
        return runner.run_single(
            model, seed, faults=faults, config=self.size.config,
            keep_series=False, scenario=self.scenario, workload=self.app,
        )

    def key(self, cell):
        model, seed, faults = cell
        return RunDescriptor(
            model, seed, faults, self.size.config, scenario=self.scenario,
            workload=self.app,
        ).key()

    def _attempt(self, out, cell):
        """Run one cell; returns ``(result, wall seconds)`` or ``None``."""
        out.attempted += 1
        started = time.perf_counter()
        try:
            result = self.run_cell(cell)
        except Exception:
            out.check(False, "{} cell {}: {}".format(
                self.name, cell, traceback.format_exc()))
            return None
        return result, time.perf_counter() - started

    def _verify(self, out, cell, result):
        ident = "{}/{}/{}".format(*cell)
        value = digest(*result_rows([result]))
        first = self._seen.setdefault(ident, value)
        expected = self.reference.get(ident, value)
        out.check(
            value == first == expected,
            "{} cell {}: digest {} (first {}, pinned {})".format(
                self.name, ident, value, first, expected),
        )

    def run(self):
        out = Outcome()
        groups = self.groups()
        setup = median_setup(self.build, itertools.islice(
            itertools.cycle(itertools.chain(*groups)), self.size.setup_samples
        ))
        op_walls, walls, ops = [], [], []
        warm = self._attempt(out, groups[0][0])
        if warm is not None:
            self._verify(out, groups[0][0], warm[0])
        cpu = cpu_seconds()
        started = time.perf_counter()
        for group in itertools.cycle(groups):
            for cell in group:
                done = self._attempt(out, cell)
                if done is None:
                    continue
                result, wall = done
                self._verify(out, cell, result)
                walls.append(wall)
                ops.append(modelled_ops(result) / OPS_PER_OP)
                op_walls.append(wall / ops[-1])
            if time.perf_counter() - started >= self.seconds:
                break
        cpu = cpu_seconds() - cpu
        out.metrics = {
            "setup_s": setup,
            "op_s.p50": statistics.median(op_walls),
            "throughput_per_s": sum(ops) * OPS_PER_OP / sum(walls),
            "cpu_s_per_op": cpu / sum(ops),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.notes.append(
            "{} cells in {} groups, median cell {:.4f} s".format(
                len(walls), len(walls) // len(groups[0]),
                statistics.median(walls)))
        return out

    def trace(self, spans):
        """The first group, untraced and then profiled."""
        out = Outcome()
        cells = self.groups()[0]
        counts = new_counts()
        profile = layers.new_profile()
        done = []
        with platform_probe() as take:
            self._attempt(out, cells[0])
            untraced = cpu_seconds()
            for cell in cells:
                self._attempt(out, cell)
            untraced = cpu_seconds() - untraced
            traced = cpu_seconds()
            with spans.span(self.name) as root:
                for cell in cells:
                    with profiled(profile):
                        key = self.key(cell)
                    with spans.span("cell", root, key) as parent, \
                            spans.span("run_single", parent, key), \
                            profiled(profile):
                        attempt = self._attempt(out, cell)
                    if attempt is not None:
                        done.append((cell, attempt[0], take()))
            traced = cpu_seconds() - traced
        for cell, result, platform in done:
            self._verify(out, cell, result)
            count_cell(counts, result, platform)
        out.metrics = per_layer([profile], counts, {}, traced, untraced)
        return out

    def reference_run(self):
        """Digests of every cell of the grid, for ``digests.json``."""
        return {
            "{}/{}/{}".format(*cell): digest(
                *result_rows([self.run_cell(cell)]))
            for group in self.groups() for cell in group
        }


class PaperCells(CellsWorkload):
    name = "paper_cells"
    FULL = CellsSize(
        config=PlatformConfig(), models=("none", "ni", "ffw"),
        faults=(0, 8), groups=4,
    )
    TINY = CellsSize(
        config=PlatformConfig.small(horizon_us=20_000),
        models=("none", "ffw"), faults=(0, 2), groups=1, setup_samples=2,
    )


class SparseDynamics(CellsWorkload):
    name = "sparse_dynamics"
    FULL = CellsSize(
        config=PlatformConfig(
            dvfs_governor="hysteresis", watchdog_recovery=True
        ),
        models=("ni", "ffw"), groups=100, scenario=SPARSE_SCENARIO,
        workload=BURST_WORKLOAD,
    )
    TINY = CellsSize(
        config=PlatformConfig.small(
            horizon_us=20_000, dvfs_governor="hysteresis",
            watchdog_recovery=True,
        ),
        models=("ffw",), groups=1, scenario=SPARSE_SCENARIO,
        workload=BURST_WORKLOAD, setup_samples=2,
    )


# -- campaign_sweep -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CampaignSize:
    config: PlatformConfig
    models: tuple = ("none", "ni", "ffw")
    seeds: int = 40
    #: Seeds campaign B shares with campaign A.
    overlap: int = 20
    faults: tuple = (0, 2)
    setup_samples: int = 20


class CampaignSweep:
    """Rounds of three ``run_campaign(processes=2)`` passes on a fresh root:
    cold, resumed (executes nothing) and an overlapping campaign B with
    ``dedup_root`` (executes only the cells A does not hold)."""

    name = "campaign_sweep"
    FULL = CampaignSize(config=PlatformConfig.small())
    TINY = CampaignSize(
        config=PlatformConfig.small(horizon_us=20_000),
        models=("none", "ffw"), seeds=2, overlap=1, faults=(0,),
        setup_samples=2,
    )

    def __init__(self, size, seed, seconds, workdir):
        self.size = size
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        shift = size.seeds - size.overlap

        def spec(name, first):
            return CampaignSpec(
                name=name, models=size.models,
                seeds=range(first, first + size.seeds),
                fault_counts=size.faults, config=size.config,
            )

        self.spec_a = spec("a", seed)
        self.spec_b = spec("b", seed + shift)
        self.cells = self.spec_a.size()
        self.shared = len(size.models) * len(size.faults) * size.overlap
        self.reference = (
            reference_digests(self.name)
            if seed == DEFAULT_SEED and size == self.FULL else {}
        )
        self._seen = {}

    def _expected(self, name):
        """``(executed, cached, deduped)`` each pass must report."""
        return {
            "cold": (self.cells, 0, 0),
            "resume": (0, self.cells, 0),
            "dedup": (self.cells - self.shared, 0, self.shared),
        }[name]

    def _round(self, out, around=None):
        """One round on a fresh root; returns ``{pass: (wall, report)}``,
        or ``None`` when a pass raised."""
        root = tempfile.mkdtemp(prefix="round-", dir=self.workdir)
        passes = (
            ("cold", self.spec_a, None), ("resume", self.spec_a, None),
            ("dedup", self.spec_b, root),
        )
        done = {}
        try:
            for name, spec, dedup_root in passes:
                out.attempted += 1
                started = time.perf_counter()
                try:
                    with around(name) if around else contextlib.nullcontext():
                        report = run_campaign(
                            spec, store=os.path.join(root, spec.name),
                            processes=2, dedup_root=dedup_root,
                        )
                except Exception:
                    out.check(False, "{} {} pass: {}".format(
                        self.name, name, traceback.format_exc()))
                    return None
                done[name] = (time.perf_counter() - started, report)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for name, (_wall, report) in done.items():
            counts = (report.executed, report.cached, report.deduped)
            value = digest(*result_rows(report.results))
            # The resumed pass must hand back exactly the cold results.
            ident = "b" if name == "dedup" else "a"
            first = self._seen.setdefault(ident, value)
            expected = self.reference.get(ident, value)
            out.check(
                counts == self._expected(name) and value == first == expected,
                "{} {} pass: executed/cached/deduped {} (want {}), digest "
                "{} (first {}, pinned {})".format(
                    self.name, name, counts, self._expected(name), value,
                    first, expected),
            )
        return done

    def _warm_up(self, out):
        out.attempted += 1
        spec = CampaignSpec(
            name="warm-up", models=self.size.models[:1],
            seeds=(self.seed, self.seed + 1), config=self.size.config,
        )
        try:
            run_campaign(spec, processes=2)
        except Exception:
            out.check(False, "{} warm-up: {}".format(
                self.name, traceback.format_exc()))

    def run(self):
        out = Outcome()
        setup = median_setup(
            lambda _: [d.key() for d in self.spec_a.expand()],
            range(self.size.setup_samples),
        )
        self._warm_up(out)
        walls, rates = [], []
        cpu = total_cpu_seconds()
        started = time.perf_counter()
        while True:
            done = self._round(out)
            if done is not None:
                walls.append(sum(wall for wall, _report in done.values()))
                rates.append(self.cells / done["cold"][0])
            if time.perf_counter() - started >= self.seconds:
                break
        cpu = total_cpu_seconds() - cpu
        out.metrics = {
            "setup_s": setup,
            "op_s.p50": statistics.median(walls),
            "throughput_per_s": statistics.median(rates),
            "cpu_s_per_op": cpu / len(walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.notes.append("{} rounds of {} cells".format(
            len(walls), self.cells))
        return out

    def trace(self, spans):
        """One round untraced, then one profiled (parent process only: the
        pool workers run unprofiled, as in the timed runs)."""
        out = Outcome()
        os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
        self._warm_up(out)
        parent_cpu = {}

        @contextlib.contextmanager
        def metered(name):
            before = cpu_seconds()
            yield
            parent_cpu[name] = cpu_seconds() - before

        untraced = total_cpu_seconds()
        reference = self._round(out, metered)
        untraced = total_cpu_seconds() - untraced
        profile = layers.new_profile()
        traced = total_cpu_seconds()
        with spans.span(self.name) as root, \
                spans.span("round", root, "round-0") as round_id:

            @contextlib.contextmanager
            def traced_pass(name):
                with spans.span(name, round_id, "round-0"), \
                        profiled(profile):
                    yield

            done = self._round(out, traced_pass)
        traced = total_cpu_seconds() - traced
        counts = new_counts()
        timings = {}
        if done is not None:
            for name, (_wall, report) in done.items():
                counts["campaign.executed"] += report.executed
                counts["campaign.cached"] += report.cached
                counts["campaign.deduped"] += report.deduped
                if name != "resume":
                    for result in report.results:
                        count_cell(counts, result)
        if reference is not None:
            timings["campaign.parent_wait_s"] = (
                reference["cold"][0] - parent_cpu["cold"]
            )
        out.metrics = per_layer([profile], counts, timings, traced, untraced)
        return out

    def reference_run(self):
        """Digests of both campaigns' cells run one by one."""
        return {
            name: digest(*result_rows(
                runner.run_single(*d.job()) for d in spec.expand()))
            for name, spec in (("a", self.spec_a), ("b", self.spec_b))
        }


# -- serve_sweep ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ServeSize:
    #: Config overrides on ``PlatformConfig.small()`` for every tenant.
    config: dict = None
    models: tuple = ("none", "ffw")
    #: Open-loop rate ladder (tenants/s); ``--seconds`` is split evenly.
    #: The first, lightest step gives the end-to-end latency: from half
    #: load up, queueing amplifies the host's own speed swings (the
    #: 10/s step's median moved twice as much between runs as the 5/s
    #: step's on a shared 2-core host).
    rates: tuple = (5.0, 10.0, 15.0, 20.0)
    boots: int = 5


#: Latency limit on a step's p90, and the grace after a step ends.
LATENCY_LIMIT_S = 0.25
COMPLETION_GRACE_S = 1.0
#: In-flight tenants are polled this often.
POLL_S = 0.005
#: Tenants not completed this long after the last one was due fail.
DRAIN_LIMIT_S = 90.0


@dataclasses.dataclass
class Tenant:
    spec: dict
    rate: float
    due: float
    sent: float = None
    done: float = None

    @property
    def name(self):
        return self.spec["name"]


class ServeSweep:
    """Open-loop tenant campaigns against ``campaign serve --workers 2``.

    One generator thread submits each tenant when it is due and, every
    :data:`POLL_S`, polls ``GET /campaigns/{id}`` for the in-flight
    tenants oldest first, stopping at the first still running (each
    shard queues cells first in, first out, so tenants finish in about
    the order they were submitted, and the poll load does not grow with
    the backlog).  One connection is open at a time.  A tenant's latency
    runs from when it was due, so a stalled generator or a backlog both
    count.  Consecutive tenants share one seed, so a third of the cells
    dedup across tenants.
    """

    name = "serve_sweep"
    FULL = ServeSize()
    TINY = ServeSize(
        config={"horizon_us": 20_000}, rates=(8.0, 16.0), boots=1,
    )

    def __init__(self, size, seed, seconds, workdir):
        self.size = size
        self.seed = seed
        self.step_s = seconds / len(size.rates)
        self.workdir = workdir
        self.reference = (
            reference_digests(self.name)
            if seed == DEFAULT_SEED and size == self.FULL else {}
        )

    def tenant_spec(self, index):
        first = self.seed + 2 * index
        spec = {
            "name": "t{:05d}".format(index),
            "models": list(self.size.models),
            "seeds": [first, first + 1, first + 2],
            "fault_counts": [0],
            "base": "small",
        }
        if self.size.config:
            spec["config"] = dict(self.size.config)
        return spec

    def schedule(self, rates, start):
        tenants = []
        for step, rate in enumerate(rates):
            for j in range(int(round(rate * self.step_s))):
                tenants.append(Tenant(
                    self.tenant_spec(len(tenants)), rate,
                    start + step * self.step_s + j / rate,
                ))
        return tenants

    def _warm_up(self, out, client, count):
        """One untimed tenant on seeds no scheduled tenant uses."""
        out.attempted += 1
        spec = dict(self.tenant_spec(count + 1), name="warm-up")
        try:
            client.submit(spec)
            final = client.wait("warm-up", timeout=DRAIN_LIMIT_S)
        except (ServeError, OSError) as exc:
            out.check(False, "{} warm-up: {!r}".format(self.name, exc))
            return 0
        out.check(final.state == "completed",
                  "{} warm-up ended {}".format(self.name, final.state))
        return final.total

    def drive(self, out, client, tenants, on_submit=None):
        """Submit every tenant when due; poll until all leave ``running``.

        Returns client timings: ``(lags, submit_s, status_s)``.
        """
        pending = deque(tenants)
        inflight = {}
        sweeping = False
        lags, submit_s, status_s = [], [], []
        next_poll = 0.0
        deadline = tenants[-1].due + DRAIN_LIMIT_S
        while pending or inflight:
            now = time.perf_counter()
            if now > deadline:
                for tenant in inflight.values():
                    out.check(False, "{} tenant {} still running {:.0f} s "
                              "after the last was due".format(
                                  self.name, tenant.name, DRAIN_LIMIT_S))
                break
            if pending and pending[0].due <= now:
                tenant = pending.popleft()
                out.attempted += 1
                tenant.sent = now
                lags.append(now - tenant.due)
                if on_submit is not None:
                    on_submit(tenant)
                try:
                    client.submit(tenant.spec)
                except (ServeError, OSError) as exc:
                    out.check(False, "{} submit {}: {!r}".format(
                        self.name, tenant.name, exc))
                    continue
                submit_s.append(time.perf_counter() - now)
                inflight[tenant.name] = tenant
                continue
            if not sweeping and inflight and now >= next_poll:
                sweeping = True
                next_poll = now + POLL_S
            if sweeping:
                tenant = next(iter(inflight.values()))
                try:
                    status = client.status(tenant.name)
                except (ServeError, OSError) as exc:
                    out.check(False, "{} status {}: {!r}".format(
                        self.name, tenant.name, exc))
                    del inflight[tenant.name]
                    sweeping = bool(inflight)
                    continue
                finished = time.perf_counter()
                status_s.append(finished - now)
                if status.state == "running":
                    sweeping = False
                else:
                    tenant.done = finished
                    del inflight[tenant.name]
                    sweeping = bool(inflight)
                    out.check(status.state == "completed",
                              "{} tenant {} ended {}".format(
                                  self.name, tenant.name, status.state))
                continue
            wake = min(
                pending[0].due if pending else deadline,
                next_poll if inflight else deadline,
            )
            time.sleep(min(max(0.0, wake - now), POLL_S))
        return lags, submit_s, status_s

    def _check_counts(self, out, client, tenants, warm_cells):
        """Every unique cell executed once; every other cell deduped."""
        cells = len(tenants) * len(self.size.models) * 3 + warm_cells
        unique = len({
            (model, seed) for tenant in tenants
            for model in tenant.spec["models"] for seed in tenant.spec["seeds"]
        }) + warm_cells
        try:
            totals = client.metrics()
        except (ServeError, OSError) as exc:
            out.check(False, "{} /metrics: {!r}".format(self.name, exc))
            return None
        out.check(
            totals["executed"] == unique and totals["failed"] == 0
            and totals["executed"] + totals["deduped"] + totals["cached"]
            == cells,
            "{}: executed {} deduped {} cached {} failed {} for {} cells "
            "({} unique)".format(
                self.name, totals["executed"], totals["deduped"],
                totals["cached"], totals["failed"], cells, unique),
        )
        return totals

    @staticmethod
    def tenant_digest(rows):
        """Digest of one tenant's ``[row, noc_stats, app_stats]`` cells,
        in (model, seed) order whatever order they were stored in."""
        return digest(*sorted(
            json.loads(json.dumps(rows)),
            key=lambda row: (row[0]["model"], row[0]["seed"]),
        ))

    def _check_digests(self, out, root, tenants):
        for tenant in tenants:
            expected = self.reference.get(tenant.name)
            if expected is None or tenant.done is None:
                continue
            with open(os.path.join(root, tenant.name, "results.jsonl")) as fh:
                records = [json.loads(line) for line in fh]
            value = self.tenant_digest([
                [record["row"], record["noc_stats"], record["app_stats"]]
                for record in records
            ])
            out.check(value == expected, "{} tenant {}: digest {} != pinned "
                      "{}".format(self.name, tenant.name, value, expected))

    # -- the daemon subprocess --------------------------------------------------

    def _boot(self, root, log):
        """Start a daemon; returns ``(process, client, seconds to the first
        good /healthz)``."""
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "campaign",
             "serve", "--root", root, "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        try:
            url = process.stdout.readline().strip()
            if not url:
                raise RuntimeError("daemon exited before binding a port")
            client = CampaignClient(url)
            while True:
                try:
                    if client.healthz().get("status") == "ok":
                        break
                except (ServeError, OSError):
                    pass
                if time.perf_counter() - started > 60.0:
                    raise RuntimeError("daemon not healthy after 60 s")
                time.sleep(0.002)
        except BaseException:
            self._stop(process)
            raise
        return process, client, time.perf_counter() - started

    @staticmethod
    def _stop(process):
        """SIGINT (the daemon drains and exits 0); kill if it hangs."""
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def run(self):
        out = Outcome()
        base = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        try:
            with contextlib.ExitStack() as stack:
                boots = []
                for k in range(self.size.boots):
                    log = stack.enter_context(
                        open(os.path.join(base, "daemon-{}.log".format(k)),
                             "w"))
                    root = os.path.join(base, "root-{}".format(k))
                    process, client, boot = self._boot(root, log)
                    stack.callback(self._stop, process)
                    boots.append(boot)
                    if k < self.size.boots - 1:
                        self._stop(process)
                tenants = self.schedule(self.size.rates, 0.0)
                warm_cells = self._warm_up(out, client, len(tenants))
                start = time.perf_counter() + 0.05
                for tenant in tenants:
                    tenant.due += start
                lags, _submit, _status = self.drive(out, client, tenants)
                self._check_counts(out, client, tenants, warm_cells)
                daemon_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
                self._stop(process)
                daemon_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - daemon_cpu
            self._check_digests(out, root, tenants)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        steps = self._steps(tenants, start)
        finished = [t.done for t in tenants if t.done is not None]
        out.metrics = {
            "setup_s": statistics.median(boots),
            "op_s.p50": steps[self.size.rates[0]]["p50"],
            "throughput_per_s": len(finished) / (max(finished) - start),
            "cpu_s_per_op": daemon_cpu / (len(tenants) + 1),
            "peak_rss_mb": peak_rss_mb(),
        }
        passing = [rate for rate, step in steps.items() if step["ok"]]
        out.notes.extend(
            "step {:>5.1f}/s: {:>4} tenants  p50 {:.4f} s  p90 {:.4f} s  "
            "max {:.4f} s  {}".format(
                rate, step["n"], step["p50"], step["p90"], step["max"],
                "ok" if step["ok"] else "over limit")
            for rate, step in steps.items()
        )
        out.notes.append(
            "max_tenant_rate {} /s (p90 <= {} s, all done within {} s of "
            "the step end); generator lag max {:.4f} s".format(
                max(passing) if passing else 0, LATENCY_LIMIT_S,
                COMPLETION_GRACE_S, max(lags) if lags else 0.0))
        return out

    def _steps(self, tenants, start):
        steps = {}
        for step, rate in enumerate(self.size.rates):
            mine = [t for t in tenants if t.rate == rate]
            latencies = [t.done - t.due for t in mine if t.done is not None]
            end = start + (step + 1) * self.step_s
            steps[rate] = {
                "n": len(mine), "p50": p50(latencies), "p90": p90(latencies),
                "max": max(latencies, default=0.0),
                "ok": len(latencies) == len(mine) > 0
                and p90(latencies) <= LATENCY_LIMIT_S
                and all(t.done <= end + COMPLETION_GRACE_S for t in mine),
            }
        return steps

    # -- traced: an in-process daemon ---------------------------------------------

    def _serve_pass(self, out, spans, traced):
        """The first ladder step against an in-process daemon; returns
        ``(profiles, counts, timings, cpu)``."""
        counts = new_counts()
        lock = threading.Lock()
        exec_s, queue_s = [], []
        #: seed -> (submit time, tenant span id) of its first tenant.
        enqueued = {}
        opened = []
        root_span = spans.open(self.name)

        def run_fn(descriptor, take):
            started = time.perf_counter()
            submitted, parent = enqueued[descriptor.seed]
            with spans.span("run_single", parent, "{}/{}".format(
                    descriptor.model, descriptor.seed)):
                result = runner.run_single(*descriptor.job())
            with lock:
                exec_s.append(time.perf_counter() - started)
                queue_s.append(started - submitted)
                count_cell(counts, result, take())
            return result

        def on_submit(tenant):
            span = spans.open(
                "tenant", root_span["id"], tenant.name, start=tenant.due)
            opened.append((tenant, span))
            for seed in tenant.spec["seeds"]:
                enqueued.setdefault(seed, (tenant.sent, span["id"]))

        root = tempfile.mkdtemp(prefix="serve-traced-", dir=self.workdir)
        threads = layers.ThreadProfiles() if traced else None
        main = layers.new_profile()
        try:
            with platform_probe() as take:
                server = CampaignServer(
                    root, workers=2, run_fn=lambda d: run_fn(d, take)
                )
                tenants = self.schedule(self.size.rates[:1], 0.0)
                cpu = cpu_seconds()
                with threads or contextlib.nullcontext():
                    server.start()
                    try:
                        client = CampaignClient(server.url)
                        start = time.perf_counter() + 0.05
                        for tenant in tenants:
                            tenant.due += start
                        with profiled(main) if traced \
                                else contextlib.nullcontext():
                            lags, submit_s, status_s = self.drive(
                                out, client, tenants, on_submit)
                        totals = self._check_counts(out, client, tenants, 0)
                    finally:
                        server.shutdown()
                cpu = cpu_seconds() - cpu
            self._check_digests(out, root, tenants)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for tenant, span in opened:
            spans.close(span, tenant.done or tenant.due)
        spans.close(root_span)
        if totals is not None:
            counts["serve.executed"] = totals["executed"]
            counts["serve.deduped"] = totals["deduped"]
        timings = {
            "serve.cell_exec_s.p50": p50(exec_s),
            "serve.queue_wait_s.p50": p50(queue_s),
            "serve.submit_s.p50": p50(submit_s),
            "serve.status_s.p50": p50(status_s),
            "bench.generator_lag_s.max": max(lags, default=0.0),
        }
        profiles = (threads.profiles() + [main]) if traced else []
        return profiles, counts, timings, cpu

    def trace(self, spans):
        """The first ladder step against an in-process daemon, untraced
        (client and cell timings) and then profiled in every thread."""
        out = Outcome()
        _, _, timings, untraced = self._serve_pass(out, Spans(), False)
        profiles, counts, _, traced = self._serve_pass(out, spans, True)
        out.metrics = per_layer(profiles, counts, timings, traced, untraced)
        return out

    def reference_run(self):
        """Per-tenant digests of every tenant the full ladder submits,
        from ``run_single`` cell by cell."""
        config = PlatformConfig.small(**(self.size.config or {}))
        cache = {}
        digests = {}
        for index in range(len(self.schedule(self.size.rates, 0.0))):
            spec = self.tenant_spec(index)
            rows = []
            for model in spec["models"]:
                for seed in spec["seeds"]:
                    if (model, seed) not in cache:
                        cache[model, seed] = result_rows([runner.run_single(
                            model, seed, config=config, keep_series=False)])[0]
                    rows.append(cache[model, seed])
            digests[spec["name"]] = self.tenant_digest(rows)
        return digests


WORKLOADS = {
    cls.name: cls
    for cls in (PaperCells, SparseDynamics, CampaignSweep, ServeSweep)
}
