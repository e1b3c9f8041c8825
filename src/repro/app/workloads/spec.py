"""Declarative, content-hashed workload specifications.

A :class:`WorkloadSpec` is the application analogue of
:class:`repro.platform.scenario.FaultScenario`: a JSON-loadable,
validated description of an arbitrary task graph — pipelines, trees,
all-to-all shuffles, DAGs with fan-in > 2 — with per-task service-time
distributions and time-varying arrival shapes. It follows the same
serialisation idiom:

* ``to_dict()`` is compact (defaults omitted — what you would write in
  a JSON file);
* ``canonical()`` is the hash form: v1 fields explicit, while fields in
  ``_CANONICAL_OPTIONAL`` join the payload only when changed from their
  defaults, so the content key of every previously minted spec is
  conserved when new fields land;
* ``key()`` is the SHA-256 of the canonical JSON — campaign cells embed
  it in their own payload only when a workload is present, which keeps
  every pre-workload cell key byte-identical.

Worked examples (each is a complete ``workload FILE`` / ``--workload``
payload; see also ``examples/workloads/*.json``):

A three-stage pipeline, constant arrivals::

    {"name": "pipeline3",
     "tasks": [
       {"id": 1, "service_us": 500, "arrival": {"period_us": 4000},
        "downstream": [{"task": 2}]},
       {"id": 2, "service_us": 2000, "downstream": [{"task": 3}]},
       {"id": 3, "service_us": 800}]}

A 2x2 all-to-all shuffle joined by a reducer (fan-in 4)::

    {"name": "shuffle2x2",
     "tasks": [
       {"id": 1, "service_us": 400, "arrival": {"period_us": 6000},
        "downstream": [{"task": 2}, {"task": 3}]},
       {"id": 2, "service_us": 1500,
        "downstream": [{"task": 4}, {"task": 5}]},
       {"id": 3, "service_us": 1500,
        "downstream": [{"task": 4}, {"task": 5}]},
       {"id": 4, "service_us": 900, "downstream": [{"task": 6}]},
       {"id": 5, "service_us": 900, "downstream": [{"task": 6}]},
       {"id": 6, "service_us": 600, "join": true}]}

Bursty arrivals (8 emitting ticks, 24 silent) into a fan-out of 4::

    {"name": "burst_fan4",
     "tasks": [
       {"id": 1, "service_us": 500,
        "arrival": {"period_us": 3000, "shape": "burst",
                    "burst_ticks": 8, "idle_ticks": 24},
        "downstream": [{"task": 2, "fanout": 4}]},
       {"id": 2, "service_us": 6000, "weight": 4,
        "downstream": [{"task": 3}]},
       {"id": 3, "service_us": 1200, "join": true}]}
"""

import dataclasses
import hashlib
import json
import os

from repro.app.workloads.arrivals import ArrivalSpec

SPEC_SCHEMA_VERSION = 1

SERVICE_DISTS = (None, "uniform", "exponential")


@dataclasses.dataclass(frozen=True)
class EdgeSpec:
    """One downstream edge: route ``fanout`` copies to ``task``."""

    task: int
    fanout: int = 1

    def __post_init__(self):
        if not isinstance(self.task, int):
            raise ValueError(f"edge task id must be an int, got {self.task!r}")
        if not isinstance(self.fanout, int) or self.fanout < 1:
            raise ValueError(
                f"edge fanout must be a positive integer, got {self.fanout!r}"
            )

    def to_dict(self):
        """Compact dict (``fanout`` only when > 1)."""
        data = {"task": self.task}
        if self.fanout != 1:
            data["fanout"] = self.fanout
        return data

    def canonical(self):
        """Hash form: both fields, always explicit."""
        return {"task": self.task, "fanout": self.fanout}

    @classmethod
    def from_dict(cls, data):
        """Build from a dict or a bare task-id integer."""
        if isinstance(data, int):
            return cls(task=data)
        if not isinstance(data, dict):
            raise ValueError(
                f"downstream edge must be a task id or a dict, got {data!r}"
            )
        data = dict(data)
        task = data.pop("task", None)
        if task is None:
            raise ValueError("downstream edge dict needs a task id")
        fanout = data.pop("fanout", 1)
        if data:
            raise ValueError(
                f"unknown edge field(s): {', '.join(sorted(data))}"
            )
        return cls(task=task, fanout=fanout)


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One task of a declarative workload graph.

    ``arrival`` marks the task as a source; ``join`` makes it wait for
    every branch of an instance before emitting downstream.
    ``service_dist``/``service_spread`` draw per-execution service times
    from the dedicated ``workload-service`` stream — leaving them unset
    keeps the task draw-free (fixed ``service_us``).
    """

    task_id: int
    service_us: int
    name: str = None
    weight: int = 1
    deadline_us: int = 16_000
    downstream: tuple = ()
    join: bool = False
    arrival: ArrivalSpec = None
    service_dist: str = None
    service_spread: float = None

    def __post_init__(self):
        if not isinstance(self.task_id, int):
            raise ValueError(f"task id must be an int, got {self.task_id!r}")
        if not isinstance(self.service_us, int) or self.service_us < 1:
            raise ValueError(
                f"task {self.task_id}: service_us must be a positive "
                f"integer, got {self.service_us!r}"
            )
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(
                f"task {self.task_id}: weight must be a positive integer, "
                f"got {self.weight!r}"
            )
        if self.deadline_us is not None and (
            not isinstance(self.deadline_us, int) or self.deadline_us < 1
        ):
            raise ValueError(
                f"task {self.task_id}: deadline_us must be a positive "
                f"integer or null, got {self.deadline_us!r}"
            )
        edges = tuple(
            e if isinstance(e, EdgeSpec) else EdgeSpec.from_dict(e)
            for e in (self.downstream or ())
        )
        object.__setattr__(self, "downstream", edges)
        if self.arrival is not None and not isinstance(
            self.arrival, ArrivalSpec
        ):
            object.__setattr__(
                self, "arrival", ArrivalSpec.from_dict(self.arrival)
            )
        if not isinstance(self.join, bool):
            raise ValueError(
                f"task {self.task_id}: join must be a bool, got {self.join!r}"
            )
        if self.join and self.arrival is not None:
            raise ValueError(
                f"task {self.task_id}: a task cannot be both a join and "
                f"a source"
            )
        if self.service_dist not in SERVICE_DISTS:
            known = ", ".join(d for d in SERVICE_DISTS if d)
            raise ValueError(
                f"task {self.task_id}: unknown service_dist "
                f"{self.service_dist!r} (known: {known})"
            )
        if self.service_dist == "uniform":
            spread = self.service_spread
            if not isinstance(spread, (int, float)) or isinstance(
                spread, bool
            ) or not 0.0 < spread <= 1.0:
                raise ValueError(
                    f"task {self.task_id}: uniform service_dist needs "
                    f"service_spread in (0, 1], got {spread!r}"
                )
        elif self.service_spread is not None:
            raise ValueError(
                f"task {self.task_id}: service_spread only applies to the "
                f"uniform service_dist"
            )

    def to_dict(self):
        """Compact dict (defaults omitted; id spelled ``id``)."""
        data = {"id": self.task_id, "service_us": self.service_us}
        for field in dataclasses.fields(self):
            if field.name in ("task_id", "service_us"):
                continue
            value = getattr(self, field.name)
            if value == _TASK_DEFAULTS[field.name]:
                continue
            if field.name == "downstream":
                data["downstream"] = [e.to_dict() for e in value]
            elif field.name == "arrival":
                data["arrival"] = value.to_dict()
            else:
                data[field.name] = value
        return data

    def canonical(self):
        """Hash form. v1 task fields are explicit; fields listed in
        ``_CANONICAL_OPTIONAL`` (the service-distribution pair) join only
        when set, conserving keys minted before they existed."""
        data = {
            "id": self.task_id,
            "service_us": self.service_us,
            "name": self.name,
            "weight": self.weight,
            "deadline_us": self.deadline_us,
            "downstream": [e.canonical() for e in self.downstream],
            "join": self.join,
            "arrival": None if self.arrival is None
            else self.arrival.canonical(),
        }
        for field in _TASK_CANONICAL_OPTIONAL:
            value = getattr(self, field)
            if value != _TASK_DEFAULTS[field]:
                data[field] = value
        return data

    @classmethod
    def from_dict(cls, data):
        """Build from a plain dict, rejecting unknown fields."""
        if not isinstance(data, dict):
            raise ValueError(f"task spec must be a dict, got {data!r}")
        data = dict(data)
        task_id = data.pop("id", None)
        if task_id is None:
            raise ValueError("task spec needs an id")
        service_us = data.pop("service_us", None)
        if service_us is None:
            raise ValueError(f"task {task_id}: spec needs a service_us")
        kwargs = {}
        for field in _TASK_DEFAULTS:
            if field in data:
                kwargs[field] = data.pop(field)
        if data:
            raise ValueError(
                f"task {task_id}: unknown field(s): "
                f"{', '.join(sorted(data))}"
            )
        return cls(task_id=task_id, service_us=service_us, **kwargs)


_TASK_DEFAULTS = {
    field.name: field.default
    for field in dataclasses.fields(TaskSpec)
    if field.name not in ("task_id", "service_us")
}

# Post-v1 task fields: join the canonical payload only when changed.
_TASK_CANONICAL_OPTIONAL = frozenset({"service_dist", "service_spread"})


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A complete declarative workload: named task graph + platform
    packet parameters.

    ``multicast`` switches sources from sequential branch emission to
    emitting every branch of an instance in one (stretched) generation
    tick, delivered via NoC multicast — the paper's SS V future-work
    mode. ``per_task_series`` opts the metrics sampler into per-task
    execution columns (exported only when non-zero).
    """

    name: str
    tasks: tuple
    packet_flits: int = 4
    multicast: bool = False
    per_task_series: bool = False

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"workload name must be a non-empty string, got {self.name!r}"
            )
        tasks = tuple(
            t if isinstance(t, TaskSpec) else TaskSpec.from_dict(t)
            for t in (self.tasks or ())
        )
        object.__setattr__(self, "tasks", tasks)
        if not tasks:
            raise ValueError(f"workload {self.name!r} has no tasks")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            seen, dupes = set(), set()
            for task_id in ids:
                (dupes if task_id in seen else seen).add(task_id)
            raise ValueError(
                f"workload {self.name!r}: duplicate task id(s) "
                f"{sorted(dupes)}"
            )
        known = set(ids)
        for task in tasks:
            for edge in task.downstream:
                if edge.task not in known:
                    raise ValueError(
                        f"workload {self.name!r}: task {task.task_id} "
                        f"routes to unknown task {edge.task}"
                    )
        if not any(t.arrival is not None for t in tasks):
            raise ValueError(
                f"workload {self.name!r} has no source task "
                f"(no task carries an arrival)"
            )
        if not isinstance(self.packet_flits, int) or self.packet_flits < 1:
            raise ValueError(
                f"packet_flits must be a positive integer, "
                f"got {self.packet_flits!r}"
            )
        for flag in ("multicast", "per_task_series"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(
                    f"{flag} must be a bool, got {getattr(self, flag)!r}"
                )

    # -- accessors ---------------------------------------------------------

    def task(self, task_id):
        """The :class:`TaskSpec` with the given id (KeyError if absent)."""
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise KeyError(task_id)

    def source_ids(self):
        """Task ids that carry an arrival (the graph's sources)."""
        return [t.task_id for t in self.tasks if t.arrival is not None]

    def join_ids(self):
        """Task ids marked as joins."""
        return [t.task_id for t in self.tasks if t.join]

    # -- serialisation -----------------------------------------------------

    def to_dict(self):
        """Compact dict (defaults omitted) — what a JSON file holds."""
        data = {
            "name": self.name,
            "tasks": [t.to_dict() for t in self.tasks],
        }
        for field in ("packet_flits", "multicast", "per_task_series"):
            value = getattr(self, field)
            if value != _SPEC_DEFAULTS[field]:
                data[field] = value
        return data

    def canonical(self):
        """Hash form. v1 spec fields are explicit; fields listed in
        ``_CANONICAL_OPTIONAL`` join only when changed from their
        defaults, so keys minted before a field existed are conserved."""
        data = {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "tasks": [t.canonical() for t in self.tasks],
            "packet_flits": self.packet_flits,
            "multicast": self.multicast,
        }
        for field in _CANONICAL_OPTIONAL:
            value = getattr(self, field)
            if value != _SPEC_DEFAULTS[field]:
                data[field] = value
        return data

    def key(self):
        """Content hash of the canonical form — the workload's identity
        in campaign cell keys and stores."""
        blob = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data):
        """Build from a plain dict, rejecting unknown fields."""
        if not isinstance(data, dict):
            raise ValueError(f"workload spec must be a dict, got {data!r}")
        data = dict(data)
        data.pop("schema", None)
        name = data.pop("name", None)
        if name is None:
            raise ValueError("workload spec needs a name")
        tasks = data.pop("tasks", None)
        if not tasks:
            raise ValueError(f"workload {name!r} needs a non-empty tasks list")
        kwargs = {}
        for field in ("packet_flits", "multicast", "per_task_series"):
            if field in data:
                kwargs[field] = data.pop(field)
        if data:
            raise ValueError(
                f"workload {name!r}: unknown field(s): "
                f"{', '.join(sorted(data))}"
            )
        return cls(name=name, tasks=tuple(tasks), **kwargs)

    @classmethod
    def from_json_file(cls, path):
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self):
        return (
            f"WorkloadSpec({self.name!r}, tasks={len(self.tasks)}, "
            f"key={self.key()[:12]})"
        )


_SPEC_DEFAULTS = {
    field.name: field.default
    for field in dataclasses.fields(WorkloadSpec)
    if field.name not in ("name", "tasks")
}

# Post-v1 spec fields: join the canonical payload only when changed.
_CANONICAL_OPTIONAL = frozenset({"per_task_series"})


# -- built-in specs ----------------------------------------------------------


def fork_join_spec(fork_width=3, generation_period_us=4_000,
                   source_service_us=500, branch_service_us=12_500,
                   sink_service_us=3_000, deadline_us=16_000,
                   packet_flits=4, multicast=False):
    """The paper's Figure 3 fork-join graph with its 1:3:1 ratio.

    Task 1 (weight 1) sources packets every 4 ms and sinks the fed-back
    join results; its packets fork into ``fork_width`` branches of task 2
    (weight ``fork_width``), which join at task 3 (weight 1), whose
    result feeds back to the source — closing the loop keeps every task
    id visible in NoC traffic, which is what lets the intelligence
    models sense demand for all three tasks.

    Default timing calibration (at the nominal 100 MHz node frequency):

    * task 1 generates one packet every 4 ms (the paper's stated rate)
      and sinks join results cheaply;
    * task 2's service time is chosen so that the 1:3:1 provider ratio
      is the balance point: one source's 0.25 packets/ms require
      ``0.25 × service₂ ≈ 3`` task-2 providers;
    * task 3 similarly needs ≈ 1 provider per source.

    With the 128-node Centurion census (≈ 25.6 : 76.8 : 25.6) this puts
    the task-2 stage right at the edge of saturation, which is the
    regime in which the paper's adaptive models have something to
    optimise.

    The defaults equal :class:`~repro.platform.config.PlatformConfig`'s
    task-graph fields; a config-only cell runs this spec built from those
    fields (pinned by ``tests/integration/test_workload_determinism.py``).
    """
    return WorkloadSpec(
        name="fork_join",
        tasks=(
            TaskSpec(
                task_id=1, service_us=source_service_us, name="task1-source",
                weight=1, deadline_us=deadline_us,
                downstream=(EdgeSpec(task=2, fanout=fork_width),),
                arrival=ArrivalSpec(period_us=generation_period_us),
            ),
            TaskSpec(
                task_id=2, service_us=branch_service_us, name="task2-branch",
                weight=fork_width, deadline_us=deadline_us,
                downstream=(EdgeSpec(task=3),),
            ),
            TaskSpec(
                task_id=3, service_us=sink_service_us, name="task3-join",
                weight=1, deadline_us=deadline_us,
                downstream=(EdgeSpec(task=1),), join=True,
            ),
        ),
        packet_flits=packet_flits,
        multicast=multicast,
    )


def pipeline_spec(stages=3, generation_period_us=4_000, service_us=2_000,
                  deadline_us=16_000):
    """A linear ``stages``-deep pipeline with constant arrivals."""
    if stages < 2:
        raise ValueError("a pipeline needs at least 2 stages")
    tasks = [
        TaskSpec(
            task_id=1, service_us=max(1, service_us // 4),
            name="stage1-source", deadline_us=deadline_us,
            downstream=(EdgeSpec(task=2),),
            arrival=ArrivalSpec(period_us=generation_period_us),
        ),
    ]
    for stage in range(2, stages + 1):
        downstream = (EdgeSpec(task=stage + 1),) if stage < stages else ()
        tasks.append(TaskSpec(
            task_id=stage, service_us=service_us, name=f"stage{stage}",
            deadline_us=deadline_us, downstream=downstream,
        ))
    return WorkloadSpec(name=f"pipeline{stages}", tasks=tuple(tasks))


def shuffle_spec(width=2, generation_period_us=6_000, map_service_us=1_500,
                 reduce_service_us=900, deadline_us=16_000):
    """An all-to-all shuffle: ``width`` mappers each feed ``width``
    reducers, joined by a single fan-in ``width**2`` reducer."""
    if width < 2:
        raise ValueError("a shuffle needs width >= 2")
    source_id = 1
    mapper_ids = list(range(2, 2 + width))
    reducer_ids = list(range(2 + width, 2 + 2 * width))
    sink_id = 2 + 2 * width
    tasks = [TaskSpec(
        task_id=source_id, service_us=400, name="shuffle-source",
        deadline_us=deadline_us,
        downstream=tuple(EdgeSpec(task=m) for m in mapper_ids),
        arrival=ArrivalSpec(period_us=generation_period_us),
    )]
    for m in mapper_ids:
        tasks.append(TaskSpec(
            task_id=m, service_us=map_service_us, name=f"map{m}",
            deadline_us=deadline_us,
            downstream=tuple(EdgeSpec(task=r) for r in reducer_ids),
        ))
    for r in reducer_ids:
        tasks.append(TaskSpec(
            task_id=r, service_us=reduce_service_us, name=f"reduce{r}",
            deadline_us=deadline_us, downstream=(EdgeSpec(task=sink_id),),
        ))
    tasks.append(TaskSpec(
        task_id=sink_id, service_us=600, name="shuffle-sink",
        deadline_us=deadline_us, join=True,
    ))
    return WorkloadSpec(name=f"shuffle{width}x{width}", tasks=tuple(tasks))


BUILTIN_WORKLOADS = {
    "fork_join": fork_join_spec,
    "pipeline3": pipeline_spec,
    "shuffle2x2": shuffle_spec,
}


def load_workload(ref):
    """Resolve ``ref`` to a :class:`WorkloadSpec`.

    Accepts a spec instance (returned as-is), a dict payload, a built-in
    name (``fork_join``, ``pipeline3``, ``shuffle2x2``), or a path to a
    JSON file.
    """
    if isinstance(ref, WorkloadSpec):
        return ref
    if isinstance(ref, dict):
        return WorkloadSpec.from_dict(ref)
    if isinstance(ref, str):
        if ref in BUILTIN_WORKLOADS:
            return BUILTIN_WORKLOADS[ref]()
        if ref.endswith(".json") or os.path.exists(ref):
            return WorkloadSpec.from_json_file(ref)
        raise ValueError(
            f"unknown workload {ref!r} — not a built-in "
            f"({', '.join(sorted(BUILTIN_WORKLOADS))}) and no such file"
        )
    raise ValueError(f"cannot load a workload from {ref!r}")
