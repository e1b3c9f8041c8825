"""The workload interpreter — the platform's one application runtime.

:class:`GraphWorkload` executes any compiled :class:`WorkloadSpec` —
the paper's Figure 3 fork-join graph (the builtin ``fork_join`` spec,
which config-only cells run), pipelines, trees, shuffles, DAGs with
fan-in > 2. Everything graph-shaped was resolved by the compiler
(branch bases, join widths, identity edges); the runtime is a small
fixed machine:

* **generation** — a source PE's periodic process ticks at the base
  arrival period; the arrival shape gates which ticks emit (returning
  no packets leaves the PE's sequence untouched, keeping instance
  numbering dense). Sequential sources cycle one emission slot per
  tick, so three ticks of a width-3 fork build one instance; multicast
  sources (paper §V) emit every slot of an instance per stretched tick.
* **forwarding** — a pass-through execution re-emits along each
  outgoing edge, expanding its branch number through the edge's
  ``(base, fanout)`` block; identity edges preserve the branch verbatim.
* **joins** — per-instance branch bookkeeping with straggler and
  duplicate guards, completed-instance memory and pruning.

Determinism: constant arrivals and fixed service times (the builtin
``fork_join`` spec) make *zero* draws from the two workload RNG
streams, so every other stream keeps the draw order it had before
declarative workloads existed; pinned by
``tests/integration/test_workload_determinism.py`` and the goldens.
"""

from repro.noc.packet import Packet
from repro.app.workloads.arrivals import (
    ARRIVAL_CONSTANT, ARRIVAL_STREAM, SERVICE_STREAM,
)
from repro.app.workloads.compiler import CompiledWorkload, compile_workload


class GraphWorkload:
    """Interpret a compiled workload spec as a platform application.

    The PE-facing contract (any object with this surface can drive a
    :class:`~repro.node.processor.ProcessingElement`; the test stubs
    implement only the hooks they need):

    * ``generation_period(task_id)`` — base period (µs) of a source,
      else ``None``; the PE wires a periodic process at it;
    * ``service_time(task_id)`` — per-execution service time (µs);
    * ``packets_for_generation(pe)`` — packets one generation tick
      emits; ``[]`` skips the tick (the PE then neither counts a
      generation nor advances its sequence);
    * ``packets_after_execution(pe, packet)`` — packets a finished
      execution emits;
    * ``multicast`` — when true, a multi-packet generation fans out
      through :meth:`~repro.noc.network.Network.send_multicast`.

    The metrics sampler additionally reads ``graph`` (the
    :class:`~repro.app.taskgraph.TaskGraph` view: ids and weights),
    ``joins`` (the paper's throughput metric), ``per_task_series``,
    ``executions_by_task``, :meth:`sink_task_executions` and
    :meth:`prune_stale_joins`; the runner reads :meth:`stats`.

    Parameters
    ----------
    sim:
        Simulator (time source + named RNG streams).
    compiled:
        A :class:`~repro.app.workloads.compiler.CompiledWorkload`, or
        anything :func:`~repro.app.workloads.compiler.compile_workload`
        accepts (spec, dict, builtin name, JSON path).
    """

    def __init__(self, sim, compiled):
        if not isinstance(compiled, CompiledWorkload):
            compiled = compile_workload(compiled)
        self.sim = sim
        self.compiled = compiled
        self.spec = compiled.spec
        self.graph = compiled.graph
        self.packet_flits = self.spec.packet_flits
        self.multicast = self.spec.multicast
        self.per_task_series = self.spec.per_task_series
        # Graphs without a join still need a completion counter for the
        # paper's throughput metric: terminal-task executions stand in.
        self._terminal_joins = not any(t.join for t in self.spec.tasks)
        self._pending_joins = {}
        self._completed_joins = set()
        # Per-source-node base-tick counters for arrival gating. Kept
        # separate from the PE's generation sequence, which only
        # advances on ticks that actually emit.
        self._ticks = {}
        self._arrival_rng = None
        self._service_rng = None
        # Statistics (the runner's ``app_stats``).
        self.generated = 0
        self.executions_by_task = {tid: 0 for tid in self.graph.task_ids()}
        self.joins = 0
        self.duplicate_branches = 0
        self.results_fed_back = 0

    # -- PE-facing API -----------------------------------------------------

    def generation_period(self, task_id):
        """Base arrival period of a source (stretched under multicast so
        average demand matches sequential emission), else ``None``."""
        spec = self.compiled.specs.get(task_id)
        if spec is None or spec.arrival is None:
            return None
        period = spec.arrival.period_us
        if self.multicast:
            period *= max(1, len(self.compiled.source_slots[task_id]))
        return period

    def service_time(self, task_id):
        """Per-execution service time; draws from the dedicated
        ``workload-service`` stream only when the task declares a
        distribution."""
        spec = self.compiled.specs[task_id]
        base = spec.service_us
        if spec.service_dist == "uniform":
            rng = self._service_stream()
            spread = spec.service_spread
            return max(1.0, base * (1.0 + rng.uniform(-spread, spread)))
        if spec.service_dist == "exponential":
            rng = self._service_stream()
            return max(1.0, rng.expovariate(1.0 / base))
        return base

    def packets_for_generation(self, pe):
        """Packets a source node emits on one generation tick.

        The arrival shape gates the tick first (burst/diurnal shapes may
        skip it entirely, which also leaves the PE's sequence counter
        untouched); emitting ticks then cycle the compiled emission
        slots — one slot per tick sequentially, all slots of an instance
        per stretched tick under multicast.
        """
        spec = self.compiled.specs.get(pe.task_id)
        if spec is None or spec.arrival is None:
            return []
        slots = self.compiled.source_slots.get(pe.task_id) or []
        if not slots:
            return []
        arrival = spec.arrival
        if arrival.shape != ARRIVAL_CONSTANT:
            tick = self._ticks.get(pe.node_id, 0)
            self._ticks[pe.node_id] = tick + 1
            rng = self._arrival_stream() if arrival.needs_rng() else None
            if not arrival.emits(tick, self.sim.now, rng):
                return []
        seq = pe._gen_seq
        if self.multicast:
            instance = (pe.node_id, seq)
            packets = [
                self._make_packet(pe.node_id, spec, dest, instance, branch)
                for dest, branch in slots
            ]
            self.generated += len(packets)
            return packets
        instance = (pe.node_id, seq // len(slots))
        dest, branch = slots[seq % len(slots)]
        self.generated += 1
        return [self._make_packet(pe.node_id, spec, dest, instance, branch)]

    def packets_after_execution(self, pe, packet):
        """Packets emitted after ``pe`` executed ``packet``: joins go
        through branch bookkeeping, sources and terminals absorb,
        pass-through tasks forward along every compiled edge."""
        spec = self.compiled.specs.get(pe.task_id)
        if spec is None:
            return []
        self.executions_by_task[spec.task_id] = (
            self.executions_by_task.get(spec.task_id, 0) + 1
        )
        if spec.join:
            return self._handle_join(pe, spec, packet)
        if spec.arrival is not None or not spec.downstream:
            # Sources emit on generation ticks only (their executions
            # sink fed-back results); terminals absorb.
            if self._terminal_joins and not spec.downstream:
                self.joins += 1
            return []
        out = []
        for edge in self.compiled.out_edges[spec.task_id]:
            if edge.identity:
                out.append(self._make_packet(
                    pe.node_id, spec, edge.dest, packet.instance,
                    packet.branch,
                ))
                continue
            old = packet.branch if isinstance(packet.branch, int) else 0
            for j in range(edge.fanout):
                out.append(self._make_packet(
                    pe.node_id, spec, edge.dest, packet.instance,
                    edge.base + old * edge.fanout + j,
                ))
        return out

    # -- join bookkeeping --------------------------------------------------

    def _handle_join(self, pe, spec, packet):
        instance = packet.instance
        if instance is None:
            return []
        if instance in self._completed_joins:
            # Straggler branch re-delivered after its instance joined;
            # it must not re-open the instance.
            self.duplicate_branches += 1
            return []
        branches = self._pending_joins.setdefault(instance, set())
        if packet.branch in branches:
            self.duplicate_branches += 1
            return []
        branches.add(packet.branch)
        if len(branches) < self.compiled.in_width[spec.task_id]:
            return []
        del self._pending_joins[instance]
        self._completed_joins.add(instance)
        self.joins += 1
        edges = self.compiled.out_edges[spec.task_id]
        if not edges:
            return []
        self.results_fed_back += 1
        out = []
        for edge in edges:
            if edge.identity:
                out.append(self._make_packet(
                    pe.node_id, spec, edge.dest, instance, None,
                ))
                continue
            for j in range(edge.fanout):
                out.append(self._make_packet(
                    pe.node_id, spec, edge.dest, instance, edge.base + j,
                ))
        return out

    def _make_packet(self, node_id, spec, dest, instance, branch):
        now = self.sim.now
        deadline = (
            now + spec.deadline_us if spec.deadline_us is not None else None
        )
        return Packet(
            src_node=node_id,
            dest_task=dest,
            size_flits=self.packet_flits,
            created_at=now,
            instance=instance,
            branch=branch,
            deadline=deadline,
        )

    # -- RNG streams -------------------------------------------------------

    def _arrival_stream(self):
        if self._arrival_rng is None:
            self._arrival_rng = self.sim.rng.stream(ARRIVAL_STREAM)
        return self._arrival_rng

    def _service_stream(self):
        if self._service_rng is None:
            self._service_rng = self.sim.rng.stream(SERVICE_STREAM)
        return self._service_rng

    # -- introspection -----------------------------------------------------

    def demand_weights(self):
        """Steady-state compute demand per task (for load-aware mapping)."""
        return self.compiled.demand_weights()

    @property
    def pending_join_count(self):
        return len(self._pending_joins)

    def prune_stale_joins(self, older_than_instances=50_000):
        """Bound join-state growth in very long simulations.

        Instances are keyed ``(source node, sequence)``; pending entries
        whose sequence lags the newest by more than the window can never
        complete in practice (their branches were dropped) and are
        removed, along with the completed-instance memory of the same
        vintage. Returns the number of pending entries pruned.
        """
        if not self._pending_joins and not self._completed_joins:
            return 0
        keys = list(self._pending_joins) + list(self._completed_joins)
        newest = max(seq for (_node, seq) in keys)
        stale = [
            key for key in self._pending_joins
            if newest - key[1] > older_than_instances
        ]
        for key in stale:
            del self._pending_joins[key]
        self._completed_joins = {
            key for key in self._completed_joins
            if newest - key[1] <= older_than_instances
        }
        return len(stale)

    def sink_task_executions(self):
        """Executions completed by the sink tasks (joins, or terminal
        tasks for join-free graphs)."""
        return sum(
            self.executions_by_task.get(tid, 0)
            for tid in self.compiled.sink_ids
        )

    def stats(self):
        """Snapshot of all application counters."""
        return {
            "generated": self.generated,
            "executions_by_task": dict(self.executions_by_task),
            "joins": self.joins,
            "pending_joins": self.pending_join_count,
            "duplicate_branches": self.duplicate_branches,
            "results_fed_back": self.results_fed_back,
        }

    def __repr__(self):
        return "GraphWorkload({!r}, generated={}, joins={})".format(
            self.spec.name, self.generated, self.joins
        )
