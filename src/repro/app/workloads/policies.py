"""Mapping policies and recovery-remap policies.

Every initial-mapping strategy has one signature::

    policy(topology, weights, rng, workload=None) -> {node_id: task_id}

so strategies are drop-in interchangeable, selected by
``PlatformConfig.initial_mapping``. ``weights`` maps task id -> ratio
weight (the 1:3:1 of the Figure 3 graph).

``random``
    The paper's initial condition: experiments start "from a random
    task-mapping", every node drawing a task with probability
    proportional to its weight, so the realised census fluctuates run
    to run (part of what the intelligence models then optimise away).
``balanced``
    An exactly weight-proportional census, randomly placed — removes the
    census noise while keeping placement random, isolating census repair
    from spatial reorganisation in the mapping ablation.
``clustered``
    A deterministic designer floorplan: contiguous column bands
    proportional to the weights, sources on the West edge, sinks on the
    East. Draws nothing from ``rng``.
``load_aware``
    Balances the *steady-state compute demand* of a declared workload
    (packet rate x service time per task, from
    :meth:`~repro.app.workloads.compiler.CompiledWorkload.demand_weights`)
    instead of the static ratio weights — a burst-heavy branch task gets
    the nodes its traffic actually needs. Without a workload (config-only
    cells) it balances the static weights, exactly like ``balanced``.

``fault-aware`` recovery remap (``PlatformConfig.recovery_remap``)
    Hooked on the dynamics seam: when a node recovers (scripted or
    watchdog-driven) and comes back blank, it is assigned the task with
    the largest census deficit against its weight-proportional target —
    closing the loop between the fault engine and the mapping layer
    instead of leaving repair entirely to the intelligence models.
"""


def _unpack_weights(weights):
    if not weights:
        raise ValueError("weights must not be empty")
    tasks = sorted(weights)
    task_weights = [weights[t] for t in tasks]
    if any(w < 0 for w in task_weights) or sum(task_weights) <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    return tasks, task_weights


def _random(topology, weights, rng, workload=None):
    tasks, task_weights = _unpack_weights(weights)
    return {
        node: rng.choices(tasks, weights=task_weights, k=1)[0]
        for node in topology.node_ids()
    }


def _balanced(topology, weights, rng, workload=None):
    nodes = list(topology.node_ids())
    tasks, task_weights = _unpack_weights(weights)
    total_weight = sum(task_weights)
    assignment = []
    remainders = []
    for task, weight in zip(tasks, task_weights):
        exact = len(nodes) * weight / total_weight
        count = int(exact)
        assignment.extend([task] * count)
        remainders.append((exact - count, task))
    remainders.sort(reverse=True)
    for _frac, task in remainders[: len(nodes) - len(assignment)]:
        assignment.append(task)
    rng.shuffle(assignment)
    return dict(zip(nodes, assignment))


def _clustered(topology, weights, rng, workload=None):
    tasks, task_weights = _unpack_weights(weights)
    total_weight = sum(task_weights)
    boundaries = []
    acc = 0.0
    for weight in task_weights:
        acc += topology.width * weight / total_weight
        boundaries.append(acc)
    mapping = {}
    for node in topology.node_ids():
        x, _y = topology.coords(node)
        for task, boundary in zip(tasks, boundaries):
            if x < boundary or boundary == boundaries[-1]:
                mapping[node] = task
                break
    return mapping


def _load_aware(topology, weights, rng, workload=None):
    if workload is not None:
        weights = workload.demand_weights()
    return _balanced(topology, weights, rng)


MAPPING_POLICIES = {
    "random": _random,
    "balanced": _balanced,
    "clustered": _clustered,
    "load_aware": _load_aware,
}

#: Recovery-remap modes for ``PlatformConfig.recovery_remap``.
RECOVERY_REMAPS = ("none", "fault-aware")


def mapping_policy(name):
    """Look up a mapping policy by name (ValueError on unknown)."""
    try:
        return MAPPING_POLICIES[name]
    except KeyError:
        raise ValueError(
            "unknown mapping policy {!r} (known: {})".format(
                name, ", ".join(sorted(MAPPING_POLICIES))
            )
        ) from None


def apply_mapping(name, topology, weights, rng, workload=None):
    """Run the named policy."""
    return mapping_policy(name)(topology, weights, rng, workload=workload)


def census(mapping):
    """Task census of a mapping: task id -> node count."""
    counts = {}
    for task in mapping.values():
        counts[task] = counts.get(task, 0) + 1
    return counts


def remap_for_recovery(platform, node_id):
    """Pick the task a just-recovered blank node should adopt.

    The fault-aware policy: compare the healthy census against each
    task's weight-proportional share of the currently alive nodes and
    return the task with the largest deficit (ties to the smallest task
    id — deterministic, no RNG draw). Returns ``None`` when the graph
    carries no weight.
    """
    weights = platform.workload.graph.weights()
    total = sum(weights.values())
    if total <= 0:
        return None
    census = platform.network.directory.task_census()
    alive = sum(1 for pe in platform.pes.values() if not pe.halted)
    best_task, best_deficit = None, None
    for task_id in sorted(weights):
        target = alive * weights[task_id] / total
        deficit = target - census.get(task_id, 0)
        if best_deficit is None or deficit > best_deficit:
            best_task, best_deficit = task_id, deficit
    return best_task
