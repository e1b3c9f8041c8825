"""Telemetry and spatial analysis of a fault-recovery run.

Runs the full Centurion with Foraging-for-Work intelligence, kills a
contiguous 4x4 block of nodes mid-run (a clustered failure — e.g. the
paper's "failure of a global clock buffer [or] a thermal issue"), and uses
the analysis toolkit to show what happened:

* task-topology maps before and after recovery (the paper's "reorganising
  the task topology"),
* activity, switch and temperature heatmaps,
* per-task packet latency statistics,
* CSV export of the metric series for external plotting (into a
  temporary directory that is removed when the example exits).

Run:  python examples/telemetry.py          (about 5 s)
"""

import os
import tempfile

from repro import CenturionPlatform, PlatformConfig
from repro.analysis.export import series_to_csv
from repro.analysis.heatmap import activity_map, switch_map, task_map
from repro.analysis.latency import LatencyCollector


def clustered_victims(topology, x0=6, y0=2, size=4):
    """A size x size block of node ids — a spatially correlated failure."""
    return [
        topology.node_id(x, y)
        for x in range(x0, x0 + size)
        for y in range(y0, y0 + size)
    ]


def main():
    platform = CenturionPlatform(PlatformConfig(), model_name="ffw",
                                 seed=99)
    collector = LatencyCollector().install(platform.network)
    victims = clustered_victims(platform.network.topology)
    platform.inject_faults(len(victims), victims=victims)

    # Run to just before the fault and photograph the settled topology.
    platform.sim.run_until(490_000)
    print(task_map(platform))
    print()

    # Through the fault and the recovery.
    series = platform.run()
    print("After the 4x4 block failure at 500 ms and recovery to 1000 ms:")
    print(task_map(platform))
    print()
    print(activity_map(platform))
    print()
    print(switch_map(platform))
    print()

    print("Packet latency by destination task:")
    for task, stats in collector.summary()["by_task"].items():
        print(
            "  task {}: n={:<6} mean={:7.0f}us  p50={:7.0f}us  "
            "p95={:7.0f}us".format(
                task, stats["count"], stats["mean_us"],
                stats["p50_us"], stats["p95_us"],
            )
        )

    # The CSV lives in a temporary directory removed when the example
    # exits; point the path elsewhere to keep the file.
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "telemetry.csv")
        rows = series_to_csv(series, path)
        print()
        print("Exported {} metric windows ({} bytes of CSV)".format(
            rows, os.path.getsize(path)))
    print("Joins per window, last 10:", series.joins[-10:])


if __name__ == "__main__":
    main()
