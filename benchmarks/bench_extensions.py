"""Benches for the paper's §V future-work extensions.

The discussion section predicts: "adaptive and multi-cast routing would
allow greater throughput as it exploits the inherent parallelism of a task
graph" and proposes adaptive thresholds.  These benches quantify all three
extensions against the evaluated system.
"""

from benchmarks.harness import runs_per_cell, seed_base, zero_fault_results
from repro.analysis.latency import LatencyCollector
from repro.experiments.stats import median
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig


def _runs():
    return max(3, runs_per_cell() // 3)


def _median_settled(model, config):
    results = zero_fault_results((model,), config, _runs())
    return median([r.settled_performance for r in results])


def test_extension_multicast_fork(benchmark):
    """Multicast fork dispatch vs the paper's sequential branches."""

    def sweep():
        out = {}
        for multicast in (False, True):
            config = PlatformConfig(multicast_fork=multicast)
            platform = CenturionPlatform(config, model_name="none",
                                         seed=seed_base())
            collector = LatencyCollector().install(platform.network)
            platform.run()
            out[multicast] = {
                "joins": platform.workload.joins,
                "p50_latency_us": collector.overall.quantile(0.5),
            }
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Fork dispatch (full Centurion, baseline routing, 1 s):")
    for multicast, data in results.items():
        print("  {:<12} joins={:<6} p50 latency={} us".format(
            "multicast" if multicast else "sequential",
            data["joins"], data["p50_latency_us"]))
    assert results[True]["joins"] > 0
    # Equal average demand: multicast must sustain comparable throughput.
    assert results[True]["joins"] >= results[False]["joins"] * 0.5


def test_extension_adaptive_port_routing(benchmark):
    """Congestion-aware output ports vs dimension-ordered XY.

    Link bandwidth is tightened (flit_time 12 us) so that output-port
    choice actually matters; the adaptive mode must not lose throughput
    and should reduce channel waiting.
    """

    def sweep():
        out = {}
        for mode in ("xy", "adaptive"):
            config = PlatformConfig(routing_mode=mode, flit_time_us=12)
            platform = CenturionPlatform(config, model_name="none",
                                         seed=seed_base())
            platform.run()
            total_wait = sum(
                link.total_wait for link in platform.network.links.values()
            )
            out[mode] = {
                "joins": platform.workload.joins,
                "total_link_wait_us": total_wait,
            }
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Routing mode under tightened links (flit_time=12us):")
    for mode, data in results.items():
        print("  {:<9} joins={:<6} total link wait={} us".format(
            mode, data["joins"], data["total_link_wait_us"]))
    assert results["adaptive"]["joins"] > 0
    assert (
        results["adaptive"]["joins"] >= results["xy"]["joins"] * 0.8
    )


def test_extension_adaptive_thresholds(benchmark):
    """Adaptive-threshold NI vs the fixed-threshold NI of the paper."""

    def sweep():
        return {
            "network_interaction": _median_settled(
                "network_interaction", PlatformConfig()
            ),
            "adaptive_network_interaction": _median_settled(
                "adaptive_network_interaction", PlatformConfig()
            ),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Median settled joins/window, fixed vs adaptive NI thresholds:")
    for model, value in results.items():
        print("  {:<30} {:6.2f}".format(model, value))
    assert all(v > 0 for v in results.values())
