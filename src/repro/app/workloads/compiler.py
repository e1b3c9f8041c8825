"""Compile a :class:`WorkloadSpec` into an executable graph program.

The interpreter (:class:`~repro.app.workloads.interpreter.GraphWorkload`)
is a small fixed machine; everything shape-specific is resolved here,
once, into a :class:`CompiledWorkload`:

* **join widths** — how many branches of one instance a join waits for.
  ``W_in(t)`` is the number of packets of a single graph instance that
  reach ``t``: the sum over incoming edges ``(u -> t, fanout f)`` of
  ``E(u) * f``, where ``E(u)`` is 1 for sources and joins (they emit
  one packet per instance per edge-slot) and ``W_in(u)`` for
  pass-through tasks (they forward everything they receive);
* **branch bases** — each incoming edge of a task owns a contiguous
  block of branch numbers, assigned in spec declaration order, so
  branches arriving at a join are globally unique without any runtime
  negotiation;
* **identity edges** — an edge with ``fanout == 1`` whose destination
  has exactly one incoming edge preserves the packet's branch verbatim
  (including ``None``) — the built-in ``fork_join`` spec's branch and
  join-result edges are identity edges;
* **validation** — every cycle must pass through a source or a join
  (sources absorb incoming packets, joins deduplicate re-visits; a pure
  pass-through cycle would multiply packets forever), and every join
  must be fed by exactly one source (instances are keyed by the
  originating source node);
* **steady-state rates** — per-task packet arrival rates derived from
  the sources' mean arrival rates, feeding the capacity lint
  (:func:`capacity_report`) and the load-aware mapping policy
  (:meth:`CompiledWorkload.demand_weights`).
"""

from repro.app.taskgraph import Task, TaskGraph
from repro.app.workloads.spec import load_workload


class WorkloadGraphError(ValueError):
    """A structurally invalid workload graph."""


class CompiledEdge:
    """One outgoing edge, fully resolved for the interpreter."""

    __slots__ = ("dest", "fanout", "base", "identity")

    def __init__(self, dest, fanout, base, identity):
        self.dest = dest
        self.fanout = fanout
        self.base = base
        self.identity = identity

    def __repr__(self):
        return (
            f"CompiledEdge(dest={self.dest}, fanout={self.fanout}, "
            f"base={self.base}, identity={self.identity})"
        )


class CompiledWorkload:
    """A validated, executable form of a :class:`WorkloadSpec`."""

    def __init__(self, spec, graph, specs, in_width, out_edges,
                 source_slots, origins, packet_rate):
        self.spec = spec
        self.graph = graph
        self.specs = specs
        self.in_width = in_width
        self.out_edges = out_edges
        self.source_slots = source_slots
        self.origins = origins
        self.packet_rate = packet_rate
        joins = sorted(t.task_id for t in spec.tasks if t.join)
        terminals = sorted(
            t.task_id for t in spec.tasks if not t.downstream
        )
        self.sink_ids = joins or terminals

    def demand_weights(self):
        """Steady-state compute demand per task (packet rate x service
        time) — the weight vector the load-aware mapping policy
        balances. Tasks that never receive work keep a tiny floor so
        they still get placed."""
        demand = {}
        for task_id, spec in self.specs.items():
            rate = self.packet_rate.get(task_id, 0.0)
            demand[task_id] = max(rate * spec.service_us, 1e-9)
        return demand

    def __repr__(self):
        return (
            f"CompiledWorkload({self.spec.name!r}, "
            f"tasks={len(self.specs)}, sinks={self.sink_ids})"
        )


def compile_workload(ref):
    """Compile ``ref`` (spec / dict / builtin name / path) — raises
    :class:`WorkloadGraphError` on structurally invalid graphs."""
    spec = load_workload(ref)
    specs = {t.task_id: t for t in spec.tasks}

    def effective_unit(task):
        # Sources and joins emit one packet per instance per edge-slot.
        return task.arrival is not None or task.join

    # Incoming edges per destination, in spec declaration order — the
    # order fixes each edge's branch-number block deterministically.
    incoming = {t.task_id: [] for t in spec.tasks}
    for task in spec.tasks:
        for edge in task.downstream:
            incoming[edge.task].append((task.task_id, edge.fanout))

    # Width propagation order: a pass-through task's contribution depends
    # on its own W_in, so toposort the pass-through dependency edges.
    # Sources and joins contribute a known unit and cut the dependency,
    # which is exactly why every cycle must contain one of them.
    pending = {}
    dependents = {t.task_id: [] for t in spec.tasks}
    for task in spec.tasks:
        deps = 0
        for src, _ in incoming[task.task_id]:
            if not effective_unit(specs[src]):
                deps += 1
                dependents[src].append(task.task_id)
        pending[task.task_id] = deps
    order = [t.task_id for t in spec.tasks if pending[t.task_id] == 0]
    resolved = []
    while order:
        task_id = order.pop(0)
        resolved.append(task_id)
        for dep in dependents[task_id]:
            pending[dep] -= 1
            if pending[dep] == 0:
                order.append(dep)
    if len(resolved) != len(spec.tasks):
        stuck = sorted(t for t, n in pending.items() if n > 0)
        raise WorkloadGraphError(
            f"workload {spec.name!r}: cycle through pass-through "
            f"task(s) {stuck} — every cycle must contain a source or "
            f"a join task"
        )

    in_width = {}
    in_base = {}
    for task_id in resolved:
        width = 0
        bases = []
        for src, fanout in incoming[task_id]:
            src_spec = specs[src]
            unit = 1 if effective_unit(src_spec) else in_width[src]
            bases.append(width)
            width += unit * fanout
        in_width[task_id] = width
        in_base[task_id] = bases

    for task in spec.tasks:
        if task.join:
            if not incoming[task.task_id]:
                raise WorkloadGraphError(
                    f"workload {spec.name!r}: join task {task.task_id} "
                    f"has no incoming edges"
                )
            if in_width[task.task_id] < 1:
                raise WorkloadGraphError(
                    f"workload {spec.name!r}: join task {task.task_id} "
                    f"waits for zero branches"
                )

    # Origin sources: which source's instances flow through each task.
    # Instance keys propagate through joins unchanged, so this is a
    # fixpoint over the whole graph (sources absorb and restart flow).
    origins = {
        t.task_id: ({t.task_id} if t.arrival is not None else set())
        for t in spec.tasks
    }
    changed = True
    while changed:
        changed = False
        for task in spec.tasks:
            if task.arrival is not None:
                continue
            merged = set(origins[task.task_id])
            for src, _ in incoming[task.task_id]:
                merged |= origins[src]
            if merged != origins[task.task_id]:
                origins[task.task_id] = merged
                changed = True
    for task in spec.tasks:
        if not task.join:
            continue
        sources = sorted(origins[task.task_id])
        if len(sources) != 1:
            raise WorkloadGraphError(
                f"workload {spec.name!r}: join task {task.task_id} "
                f"mixes instances from sources {sources} — a join must "
                f"be fed by exactly one source"
            )

    # Resolve outgoing edges with destination bases + identity flags.
    edge_cursor = {task_id: 0 for task_id in specs}
    out_edges = {}
    for task in spec.tasks:
        edges = []
        for edge in task.downstream:
            slot = edge_cursor[edge.task]
            edge_cursor[edge.task] += 1
            base = in_base[edge.task][slot]
            identity = (
                edge.fanout == 1 and len(incoming[edge.task]) == 1
            )
            edges.append(
                CompiledEdge(edge.task, edge.fanout, base, identity)
            )
        out_edges[task.task_id] = edges

    # Flattened per-source emission slots: (dest, branch) per packet of
    # one instance, cycled by the PE's generation sequence.
    source_slots = {}
    for task in spec.tasks:
        if task.arrival is None:
            continue
        slots = []
        for edge in out_edges[task.task_id]:
            for j in range(edge.fanout):
                slots.append((edge.dest, edge.base + j))
        source_slots[task.task_id] = slots

    # Steady-state packet rates (packets/us entering each task). A
    # source's instance rate divides its mean tick rate by the slots per
    # instance; joins re-emit at their instance rate; pass-throughs
    # forward everything. Resolved in the same toposort order.
    instance_rate = {}
    for task in spec.tasks:
        if task.arrival is None:
            continue
        slots = len(source_slots[task.task_id])
        tick_rate = task.arrival.mean_rate() / task.arrival.period_us
        instance_rate[task.task_id] = (
            tick_rate / slots if slots else 0.0
        )

    packet_rate = {task_id: 0.0 for task_id in specs}
    emit_rate = {}

    def source_of(task_id):
        found = sorted(origins[task_id])
        return found[0] if len(found) == 1 else None

    for task_id in resolved:
        task = specs[task_id]
        if task.arrival is not None:
            emit_rate[task_id] = instance_rate[task_id]
        elif task.join:
            origin = source_of(task_id)
            emit_rate[task_id] = (
                instance_rate.get(origin, 0.0) if origin else 0.0
            )
        else:
            emit_rate[task_id] = packet_rate[task_id]
        for edge in out_edges[task_id]:
            packet_rate[edge.dest] += emit_rate[task_id] * edge.fanout
    # Executions = arrivals for every task; sources also execute the
    # packets fed back to them.

    graph = TaskGraph([_as_task(t) for t in spec.tasks])
    return CompiledWorkload(
        spec=spec, graph=graph, specs=specs, in_width=in_width,
        out_edges=out_edges, source_slots=source_slots, origins=origins,
        packet_rate=packet_rate,
    )


def _as_task(spec):
    """Project a TaskSpec onto the :class:`Task` view the mapping,
    intelligence and metrics layers read (id, name, weight)."""
    return Task(
        task_id=spec.task_id,
        name=spec.name or f"task{spec.task_id}",
        weight=spec.weight,
    )


def capacity_report(compiled, num_nodes):
    """Steady-state capacity / stability preview for the lint.

    For each task: the mean packet arrival rate, the compute demand in
    node-equivalents (``rate x service_us``), the node share its mapping
    weight buys it, and the resulting utilisation. Returns
    ``(rows, warnings)`` — utilisation > 1 means the steady-state
    arrival rate exceeds capacity (queues grow without bound);
    ``peak_utilization`` additionally evaluates the arrival curve at its
    peak, flagging shapes that are only transiently over capacity.
    """
    spec = compiled.spec
    total_weight = sum(t.weight for t in spec.tasks) or 1
    rows = []
    warnings = []
    for task in spec.tasks:
        rate = compiled.packet_rate.get(task.task_id, 0.0)
        demand = rate * task.service_us
        share = num_nodes * task.weight / total_weight
        utilization = demand / share if share else float("inf")
        peak = utilization
        origin = sorted(compiled.origins.get(task.task_id, ()))
        if origin:
            arrival = compiled.specs[origin[0]].arrival
            if arrival is not None and arrival.mean_rate() > 0:
                peak = utilization / arrival.mean_rate()
        rows.append({
            "task": task.task_id,
            "name": task.name or f"task{task.task_id}",
            "rate_per_ms": rate * 1_000.0,
            "service_us": task.service_us,
            "demand_nodes": demand,
            "share_nodes": share,
            "utilization": utilization,
            "peak_utilization": peak,
        })
        is_source = task.arrival is not None
        if rate <= 0.0 and not is_source:
            warnings.append(
                f"task {task.task_id} never receives work "
                f"(unreachable from every source)"
            )
        elif utilization > 1.0:
            warnings.append(
                f"task {task.task_id} is over capacity: steady-state "
                f"demand {demand:.2f} node-equivalents vs a share of "
                f"{share:.2f} (utilization {utilization:.2f})"
            )
        elif peak > 1.0:
            warnings.append(
                f"task {task.task_id} is transiently over capacity at "
                f"the arrival peak (peak utilization {peak:.2f}) — "
                f"queues must drain during the quiet phase"
            )
    return rows, warnings
