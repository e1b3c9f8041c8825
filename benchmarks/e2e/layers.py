"""Layer attribution of profiles taken around the benchmark's own calls.

The layers are the ``src/repro`` packages.  :data:`MODULE_LAYERS` maps
each package to its layer; ``bench`` is this benchmark's own code.  A
builtin's self time goes to the layer of its caller, because a builtin
does work on behalf of whoever called it, and so does the time of
standard-library code (JSON encoding for a cell key is the campaign
layer's cost).  ``other`` keeps only time no layer called: thread and
HTTP-request bootstrap.

Profiles use per-thread CPU time (``time.thread_time``), so a thread
blocked on a lock or a socket adds no self time anywhere.
"""

import cProfile
import os
import pstats
import sys
import threading
import time

from . import HERE, SRC

#: Every package of ``src/repro`` (plus the two serve modules) by layer.
#: ``analysis`` is the experiments' post-processing, so it shares their
#: layer; the top-level ``repro`` module only re-exports.
MODULE_LAYERS = {
    "repro": "experiments",
    "repro.sim": "sim",
    "repro.noc": "noc",
    "repro.node": "node",
    "repro.core": "core",
    "repro.app": "app",
    "repro.platform": "platform",
    "repro.experiments": "experiments",
    "repro.analysis": "experiments",
    "repro.campaign": "campaign",
    "repro.campaign.serve": "serve",
    "repro.campaign.client": "serve",
}

LAYERS = (
    "sim", "noc", "node", "core", "app", "platform", "experiments",
    "campaign", "serve", "bench", "other",
)

#: Layers whose callbacks the event kernel dispatches.
CENSUS_LAYERS = ("sim", "noc", "node", "core", "app", "platform")

#: ``(file suffix, function)`` of the kernel loop and of the periodic
#: tick closure the census looks through.
RUN_UNTIL = ("repro/sim/engine.py", "run_until")
PERIODIC_TICK = ("repro/sim/process.py", "tick")
HEAPPOP = "<built-in method _heapq.heappop>"

_SRC_PREFIX = os.path.join(SRC, "")
_BENCH_PREFIX = os.path.join(HERE, "")


def layer_of_module(module):
    """Layer of a dotted ``repro`` module name, or ``None`` if unmapped."""
    parts = module.split(".")
    if len(parts) == 1:
        return MODULE_LAYERS.get(module)
    for depth in (3, 2):
        layer = MODULE_LAYERS.get(".".join(parts[:depth]))
        if layer is not None:
            return layer
    return None


def layer_of(func):
    """Layer of a pstats function key ``(filename, line, name)``."""
    path = os.path.abspath(func[0])
    if path.startswith(_SRC_PREFIX):
        module = os.path.splitext(os.path.relpath(path, SRC))[0]
        module = module.replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        return layer_of_module(module) or "other"
    if path.startswith(_BENCH_PREFIX):
        return "bench"
    return "other"


def _is(func, target):
    return func[2] == target[1] and func[0].replace(os.sep, "/").endswith(
        target[0]
    )


def new_profile():
    """A profiler timing per-thread CPU time."""
    return cProfile.Profile(time.thread_time)


def merge(profiles):
    """One :class:`pstats.Stats` over several profilers (``None`` if empty)."""
    stats = None
    for profile in profiles:
        if stats is None:
            stats = pstats.Stats(profile)
        else:
            stats.add(profile)
    return stats


def _owned(func):
    """The layer owning ``func``'s time itself, or ``None`` for builtins
    and outside code, whose time belongs to their callers."""
    layer = layer_of(func)
    return None if func[0] == "~" or layer == "other" else layer


def self_seconds(stats):
    """Self CPU seconds per layer.

    Time in builtins and outside code is charged to the layers that
    called it, through the profile's caller edges (a caller that is
    outside code itself passes the charge on in proportion to where its
    own time came from).  Time with no calling layer stays ``other``.
    """
    shares = {}

    def share_of(func, active=()):
        """``{layer: fraction}`` of ``func``'s time, by calling layer."""
        if func in shares:
            return shares[func]
        owner = _owned(func)
        if owner is not None:
            return {owner: 1.0}
        active += (func,)
        # Recursive edges carry no new information about who called.
        callers = {
            caller: edge
            for caller, edge in stats.stats.get(func, (0, 0, 0, 0, {}))[4]
            .items() if caller not in active
        }
        if not callers:
            return {"other": 1.0}
        weights = {c: edge[3] for c, edge in callers.items()}
        if not sum(weights.values()):
            weights = {c: edge[0] for c, edge in callers.items()}
        total = sum(weights.values())
        mix = {}
        for caller, weight in weights.items():
            for layer, share in share_of(caller, active).items():
                mix[layer] = mix.get(layer, 0.0) + share * weight / total
        shares[func] = mix
        return mix

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        owner = _owned(func)
        if owner is not None:
            totals[owner] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for layer, share in share_of(caller).items():
                totals[layer] += edge[2] * share
            charged += edge[2]
        totals["other"] += max(0.0, tt - charged)
    return totals


def census(stats):
    """Kernel dispatches per layer, from the callee edges of ``run_until``.

    Each edge out of ``Simulator.run_until`` counts the events whose
    callback is that function (the ``heappop`` edge is the loop's own
    bookkeeping).  A ``PeriodicProcess`` tick is followed down to the
    callback it invokes; ticks that return early, stranded by a stop,
    stay with the kernel.
    """
    callees = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        for caller, edge in callers.items():
            callees.setdefault(caller, []).append((func, edge[0]))
    counts = dict.fromkeys(LAYERS, 0)
    for caller, edges in callees.items():
        if not _is(caller, RUN_UNTIL):
            continue
        for func, calls in edges:
            if func[2] == HEAPPOP:
                continue
            if not _is(func, PERIODIC_TICK):
                counts[layer_of(func)] += calls
                continue
            followed = 0
            for callback, n in callees.get(func, ()):
                layer = layer_of(callback)
                if callback[0] != "~" and layer not in ("sim", "other"):
                    counts[layer] += n
                    followed += n
            counts["sim"] += calls - followed
    return counts


def cumulative(stats, suffix, name):
    """Cumulative seconds inside functions ``name`` of files ``suffix``."""
    return sum(
        ct for func, (_cc, _nc, _tt, ct, _callers) in stats.stats.items()
        if _is(func, (suffix, name))
    )


def layer_metrics(stats):
    """``<layer>.self_s``, ``<layer>.self_share`` and ``<layer>.events``."""
    seconds = self_seconds(stats)
    total = sum(seconds.values()) or 1.0
    events = census(stats)
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = seconds[layer]
        metrics[layer + ".self_share"] = seconds[layer] / total
    for layer in CENSUS_LAYERS:
        metrics[layer + ".events"] = events[layer]
    return metrics


class ThreadProfiles:
    """Profile every thread started while the context is active.

    A thread-per-request HTTP server starts a thread for every request,
    so a profiler whose thread has ended is handed to the next new
    thread instead of allocating one per request: the profiler set stays
    as small as the number of threads alive at once.  A profiler is
    never shared by two live threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._owners = {}

    def _hook(self, frame, event, arg):
        sys.setprofile(None)
        with self._lock:
            profile = next(
                (p for p, owner in self._owners.items()
                 if not owner.is_alive()),
                None,
            ) or new_profile()
            self._owners[profile] = threading.current_thread()
        profile.enable()

    def __enter__(self):
        threading.setprofile(self._hook)
        return self

    def __exit__(self, *exc_info):
        threading.setprofile(None)

    def profiles(self, timeout=10.0):
        """The profilers, once every profiled thread has ended."""
        deadline = time.monotonic() + timeout
        with self._lock:
            owners = list(self._owners.values())
        for owner in owners:
            owner.join(max(0.0, deadline - time.monotonic()))
        return list(self._owners)
