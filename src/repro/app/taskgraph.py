"""Task graphs: the id / name / weight view of an application.

A :class:`TaskGraph` is what the intelligence models, the mapping
policies, the metrics sampler and the heat maps read of the running
application — its task ids, their names and their ratio weights.
:func:`~repro.app.workloads.compiler.compile_workload` projects every
:class:`~repro.app.workloads.WorkloadSpec` onto one; the spec keeps
everything else (service times, edges, joins, arrival shapes).
"""


class Task:
    """One vertex of a task graph.

    Parameters
    ----------
    task_id:
        Integer id carried in packet headers.
    name:
        Human-readable label.
    weight:
        Relative share of nodes in ratio-based mappings (the 1:3:1).
    """

    def __init__(self, task_id, name, weight=1):
        if weight < 0:
            raise ValueError("weight must be >= 0")
        self.task_id = task_id
        self.name = name
        self.weight = weight

    def __repr__(self):
        return "Task(id={}, {!r}, weight={})".format(
            self.task_id, self.name, self.weight
        )


class TaskGraph:
    """A set of tasks keyed by id (duplicate ids are rejected)."""

    def __init__(self, tasks):
        if not tasks:
            raise ValueError("task graph needs at least one task")
        self.tasks = {}
        for task in tasks:
            if task.task_id in self.tasks:
                raise ValueError(
                    "duplicate task id {}".format(task.task_id)
                )
            self.tasks[task.task_id] = task

    def task(self, task_id):
        """The :class:`Task` with the given id (KeyError if absent)."""
        return self.tasks[task_id]

    def task_ids(self):
        """Sorted list of task ids."""
        return sorted(self.tasks)

    def weights(self):
        """Mapping task id -> ratio weight (the 1:3:1)."""
        return {tid: t.weight for tid, t in self.tasks.items()}

    def __repr__(self):
        return "TaskGraph({} tasks)".format(len(self.tasks))
