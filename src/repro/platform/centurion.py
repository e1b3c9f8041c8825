"""Centurion platform assembly.

Builds the full system of Figure 2a for every node — router, processing
element, Artificial Intelligence Module — on top of one simulator, wires
the application (a :class:`~repro.app.workloads.GraphWorkload`) and the
metrics sampler, applies the initial mapping, and exposes ``run()``.
This is the main entry point of the library:

>>> from repro.platform import CenturionPlatform, PlatformConfig
>>> platform = CenturionPlatform(
...     PlatformConfig.small(), model_name="foraging_for_work", seed=7)
>>> platform.run()  # doctest: +SKIP
"""

from repro.app.metrics import MetricsSampler
from repro.app.workloads import (
    GraphWorkload,
    apply_mapping,
    compile_workload,
    fork_join_spec,
)
from repro.core.aim import AimTickBank, ArtificialIntelligenceModule
from repro.core.models.registry import create_model, resolve_model_name
from repro.node.processor import ProcessingElement
from repro.noc.network import Network
from repro.noc.router import RouterConfig
from repro.noc.topology import MeshTopology
from repro.platform.config import PlatformConfig
from repro.platform.controller import ExperimentController
from repro.platform.dynamics import DynamicsController
from repro.platform.faults import FaultInjector
from repro.platform.scenario import FaultScenario
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

#: Trace categories recorded by default (cheap, needed by experiments).
#: The per-packet ``packet_corrupted`` category is included because it
#: only fires while a corruption fault is active — corruption-free runs
#: record nothing extra.
DEFAULT_TRACE_CATEGORIES = (
    "task_switch",
    "node_failed",
    "node_recovered",
    "link_failed",
    "link_recovered",
    "link_degraded",
    "link_degrade_recovered",
    "link_corrupting",
    "link_corrupt_recovered",
    "packet_corrupted",
    "controller_severed",
    "controller_restored",
    # Self-healing dynamics: these only fire under an active governor,
    # watchdog recovery or deadlock pressure — dynamics-free runs record
    # nothing extra.
    "node_throttled",
    "node_restored",
    "watchdog_recovery",
    "deadlock_pressured",
    "deadlock_pressure_recovered",
)


class CenturionPlatform:
    """A complete simulated Centurion many-core system.

    Parameters
    ----------
    config:
        :class:`~repro.platform.config.PlatformConfig`; defaults to the
        full 128-node Centurion-V6.
    model_name:
        Intelligence scheme for every AIM: ``"none"``,
        ``"network_interaction"`` / ``"ni"``, ``"foraging_for_work"`` /
        ``"ffw"``, or any extension model in the registry.
    seed:
        Master seed; determines mapping, fault victims, jitter — the whole
        run.
    model_params:
        Optional overrides merged over ``config.model_params``.
    trace_categories:
        Which trace categories to record (``None`` = all, ``()`` = none).
    workload:
        Optional declarative workload — a
        :class:`~repro.app.workloads.WorkloadSpec` (or anything its
        :func:`~repro.app.workloads.load_workload` accepts: dict,
        built-in name, JSON file path). When absent the platform runs
        the builtin ``fork_join`` spec (the paper's Figure 3 graph)
        built from the config's task-graph fields; such config-only
        cells leave ``workload_spec`` as ``None``, so their rows carry
        no ``workload`` name. A declared spec's ``packet_flits``/
        ``multicast`` override the config's.
    """

    def __init__(self, config=None, model_name="none", seed=0,
                 model_params=None, trace_categories=DEFAULT_TRACE_CATEGORIES,
                 workload=None):
        self.config = config if config is not None else PlatformConfig()
        self.model_name = resolve_model_name(model_name)
        self.seed = seed
        self.sim = Simulator(seed=seed)
        self.trace = TraceRecorder(trace_categories)
        topology = MeshTopology(self.config.width, self.config.height)
        self.network = Network(
            self.sim,
            topology=topology,
            flit_time=self.config.flit_time_us,
            wire_latency=self.config.wire_latency_us,
            router_config=RouterConfig(
                routing_mode=self.config.routing_mode,
                router_latency=self.config.router_latency_us,
                recent_queue_depth=self.config.recent_queue_depth,
            ),
            deadlock_wait_limit=self.config.deadlock_wait_limit_us,
            max_reroutes=self.config.max_reroutes,
            trace=self.trace,
        )
        declared = workload is not None
        if not declared:
            config = self.config
            workload = fork_join_spec(
                fork_width=config.fork_width,
                generation_period_us=config.generation_period_us,
                source_service_us=config.source_service_us,
                branch_service_us=config.branch_service_us,
                sink_service_us=config.sink_service_us,
                deadline_us=config.packet_deadline_us,
                packet_flits=config.packet_flits,
                multicast=config.multicast_fork,
            )
        compiled = compile_workload(workload)
        self.workload_spec = compiled.spec if declared else None
        self.graph = compiled.graph
        self.workload = GraphWorkload(self.sim, compiled)
        self.pes = {}
        self.aims = {}
        # All AIMs tick in lockstep, so they share one periodic event
        # (AimTickBank) instead of one event per node per period.
        self._aim_ticker = AimTickBank(self.sim, self.config.aim_tick_us)
        for node_id in topology.node_ids():
            pe = ProcessingElement(
                self.sim,
                node_id,
                self.network,
                app=self.workload,
                queue_capacity=self.config.queue_capacity,
                service_jitter=self.config.service_jitter,
                overflow_hold_us=self.config.overflow_hold_us,
                trace=self.trace,
                watchdog_timeout_us=self.config.watchdog_timeout_us,
            )
            self.pes[node_id] = pe
            self.aims[node_id] = ArtificialIntelligenceModule(
                self.sim,
                pe,
                self.network.router(node_id),
                self.network,
                model=self._build_model(model_params),
                tick_bank=self._aim_ticker,
            )
        # Bind delivery straight to the PE table (one frame per delivery).
        pes = self.pes
        self.network.set_deliver_handler(
            lambda packet, node_id: pes[node_id].receive(packet)
        )
        self._apply_initial_mapping()
        # After the mapping so governor observers slot in behind each
        # node's AIM in a deterministic order; before the sampler so the
        # metrics layer can watch the dynamics counters.
        self.dynamics = DynamicsController(self)
        self.sampler = MetricsSampler(
            self.sim,
            self.pes.values(),
            self.network.directory,
            self.workload,
            window_us=self.config.metrics_window_us,
            network=self.network,
            dynamics=self.dynamics,
        ).start()
        self.controller = ExperimentController(self)
        self.faults = FaultInjector(self)

    # -- construction helpers ---------------------------------------------------

    def _build_model(self, overrides):
        if self.model_name == "none":
            # The baseline still gets a (cheap, inert) model so that every
            # node has a live AIM, as on the real platform.
            params = {}
        else:
            params = dict(self.config.model_params(self.model_name))
        if overrides:
            params.update(overrides)
        return create_model(
            self.model_name, self.graph.task_ids(), **params
        )

    def _apply_initial_mapping(self):
        rng = self.sim.rng.stream("initial-mapping")
        weights = self.graph.weights()
        topology = self.network.topology
        # Only a declared workload's demand weights steer ``load_aware``;
        # config-only cells balance the static 1:3:1 weights.
        mapping = apply_mapping(
            self.config.initial_mapping, topology, weights, rng,
            workload=(
                self.workload if self.workload_spec is not None else None
            ),
        )
        for node_id, task_id in mapping.items():
            self.pes[node_id].set_task(task_id, reason="init")
        self.initial_mapping = mapping

    # -- running -------------------------------------------------------------------

    def run(self, horizon_us=None):
        """Run the simulation to the horizon; returns the metrics series."""
        horizon = (
            self.config.horizon_us if horizon_us is None else horizon_us
        )
        self.sim.run_until(horizon)
        return self.sampler.series

    def inject_faults(self, count, at_us=None, victims=None):
        """Fail ``count`` nodes permanently at ``at_us`` (paper §IV-B).

        The one-event scenario :meth:`FaultScenario.burst
        <repro.platform.scenario.FaultScenario.burst>`: victims are drawn
        from the nodes still alive when the faults land, unless
        ``victims`` pins them.  ``at_us`` defaults to the config's
        ``fault_time_us`` (500 ms).  Returns the applied scenario.
        """
        at = self.config.fault_time_us if at_us is None else at_us
        return self.inject_scenario(
            FaultScenario.burst(count, at, victims=victims)
        )

    def inject_scenario(self, scenario):
        """Schedule a declarative fault scenario.

        ``scenario`` is a :class:`~repro.platform.scenario.FaultScenario`
        (or a plain dict / JSON file path accepted by its loaders) — the
        generalised fault surface: link failures, transients, waves and
        spatial patterns alongside the paper's permanent bursts.
        """
        if isinstance(scenario, str):
            scenario = FaultScenario.from_json_file(scenario)
        elif isinstance(scenario, dict):
            scenario = FaultScenario.from_dict(scenario)
        self.faults.apply(scenario)
        return scenario

    # -- convenience views ----------------------------------------------------------------

    @property
    def series(self):
        return self.sampler.series

    def task_census(self):
        """Current nodes-per-task census (healthy nodes only)."""
        return self.network.directory.task_census()

    def total_task_switches(self):
        """Intelligence-driven task switches across all nodes so far."""
        return sum(pe.task_switches for pe in self.pes.values())

    def __repr__(self):
        return "CenturionPlatform({}x{}, model={!r}, seed={})".format(
            self.config.width, self.config.height, self.model_name, self.seed
        )
