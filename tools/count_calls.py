"""Python calls per paper cell: a host-cost counter that repeats exactly.

Runs the six Table II paper cells (``none``/``ni``/``ffw`` x faults 0
and 8, one seed, the default :class:`~repro.platform.config.PlatformConfig`)
through ``run_single`` under cProfile, and prints for each cell the
total Python calls, the dispatched kernel events, the NoC hops and a
digest of the result's row, NoC stats and app stats, then the six-cell
call total.  The every-claim cell (:data:`EVERY_CLAIM_CELL`: one
scenario with an event of every fault kind) follows on its own line,
outside the total.  Wall time on a shared host moves by tens of per
cent between runs; these counts move only when the code does.  Call
counts depend on the interpreter, so the Python version is printed
with them.

Usage::

    make counters
    PYTHONPATH=src python tools/count_calls.py [--seed 1000]
"""

import argparse
import contextlib
import cProfile
import hashlib
import json
import pstats
import sys

from repro.experiments import runner
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

#: The Table II cells counted by default: (model, faults).
PAPER_CELLS = tuple(
    (model, faults) for model in ("none", "ni", "ffw") for faults in (0, 8)
)

#: A scenario cell with an event of every fault kind whose claims
#: overlap: two transient outages and a permanent kill on node 20, three
#: degrades of edge (40, 41), a row of routers under deadlock pressure
#: with a tighter claim inside it, and a hazard-rate link storm.  It runs
#: the fault injector's claim table end to end: (model, config,
#: scenario), run at the counted seed.
EVERY_CLAIM_CELL = (
    "ffw",
    PlatformConfig(
        dvfs_governor="hysteresis",
        watchdog_recovery=True,
        watchdog_timeout_us=50_000,
    ),
    FaultScenario.from_dict({"name": "every-claim", "events": [
        {"at_us": 300_000, "victims": [20], "duration_us": 200_000},
        {"at_us": 350_000, "victims": [20], "duration_us": 300_000},
        {"at_us": 500_000, "count": 4, "pattern": "region",
         "region": [6, 2, 9, 5]},
        {"at_us": 400_000, "kind": "link", "count": 3,
         "duration_us": 50_000, "hazard_per_us": 0.00002,
         "horizon_us": 800_000},
        {"at_us": 450_000, "kind": "link_degrade", "count": 4,
         "factor": 2},
        {"at_us": 455_000, "kind": "link_degrade", "victims": [[40, 41]],
         "factor": 3},
        {"at_us": 460_000, "kind": "link_degrade", "victims": [[40, 41]],
         "factor": 8, "duration_us": 100_000},
        {"at_us": 420_000, "victims": [20]},
        {"at_us": 520_000, "kind": "corrupt", "count": 2,
         "duration_us": 80_000},
        {"at_us": 530_000, "kind": "controller", "victims": [1],
         "duration_us": 100_000},
        {"at_us": 540_000, "kind": "deadlock_pressure", "pattern": "row",
         "row": 3, "wait_limit_us": 3, "duration_us": 100_000},
        {"at_us": 560_000, "kind": "deadlock_pressure", "victims": [50],
         "wait_limit_us": 1, "duration_us": 20_000},
        {"at_us": 480_000, "kind": "thermal_storm", "pattern": "column",
         "column": 4, "heat_c": 40},
    ]}),
)


def result_digest(result):
    """Short SHA-256 of a result's row, NoC stats and app stats.

    The canonical form is sorted-key JSON read back once, so integer
    keys hash like those of a record read back from a store.
    """
    parts = (result.as_row(), result.noc_stats, result.app_stats)
    canonical = json.dumps(
        json.loads(json.dumps(parts)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@contextlib.contextmanager
def recorded_platforms():
    """Collect the platforms ``run_single`` builds while the block runs.

    Yields a list; each platform ``run_single`` builds inside the block
    is appended to it, so its kernel counters can be read afterwards.
    """
    built = []

    class Recorded(runner.CenturionPlatform):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    original = runner.CenturionPlatform
    runner.CenturionPlatform = Recorded
    try:
        yield built
    finally:
        runner.CenturionPlatform = original


def count_cell(model, seed, faults=0, config=None, scenario=None):
    """Run one cell under cProfile and return its counters.

    The cell injects ``faults`` nodes or, instead, a ``scenario``.  The
    result is a dict with ``calls`` (cProfile's call total),
    ``dispatched`` (the kernel's ``dispatched_events``), ``hops`` and
    ``digest``.
    """
    profile = cProfile.Profile()
    with recorded_platforms() as built:
        profile.enable()
        try:
            result = runner.run_single(
                model, seed, faults=faults, config=config,
                keep_series=False, scenario=scenario,
            )
        finally:
            profile.disable()
    return {
        "calls": pstats.Stats(profile).total_calls,
        "dispatched": built[-1].sim.dispatched_events,
        "hops": result.noc_stats["hops"],
        "digest": result_digest(result),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args(argv)
    print("python {}".format(sys.version.split()[0]))
    print("{:<11} {:>12} {:>10} {:>8}  {}".format(
        "cell", "calls", "events", "hops", "digest"))
    row = "{:<11} {:>12,} {:>10,} {:>8,}  {}"
    total = 0
    for model, faults in PAPER_CELLS:
        counts = count_cell(model, args.seed, faults, PlatformConfig())
        total += counts["calls"]
        print(row.format(
            "{}/{}".format(model, faults), counts["calls"],
            counts["dispatched"], counts["hops"], counts["digest"]))
    print("{:<11} {:>12,}".format("total", total))
    model, config, scenario = EVERY_CLAIM_CELL
    counts = count_cell(model, args.seed, config=config, scenario=scenario)
    print(row.format(
        scenario.name, counts["calls"], counts["dispatched"],
        counts["hops"], counts["digest"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
