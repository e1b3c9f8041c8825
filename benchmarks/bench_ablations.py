"""Ablation benches for the reproduction's load-bearing design choices.

These are not paper tables; they probe the knobs this reproduction (and the
paper's discussion section) identify as load-bearing.  The calibration they
perturb is documented in
:func:`repro.app.workloads.spec.fork_join_spec`'s docstring, and the
platform's layering in ``docs/architecture.md``:

* **Initial mapping** — random (paper) vs exactly-balanced vs clustered
  floorplan: how much of the adaptive models' advantage is census repair?
* **NI threshold** — the Network Interaction switching threshold trades
  responsiveness against churn.
* **FFW timeout** — the paper's 20 ms task-switch timeout vs faster/slower
  foraging.
* **PE queue capacity** — buffer depth shifts where backpressure (and hence
  the FFW lateness signal) appears.
"""

from benchmarks.harness import runs_per_cell, zero_fault_results
from repro.experiments.stats import median
from repro.platform.config import PlatformConfig


def _median_perf(model, config, runs):
    results = zero_fault_results((model,), config, runs)
    return median([r.settled_performance for r in results])


def _runs():
    # Ablations use fewer runs per cell than the headline tables.
    return max(3, runs_per_cell() // 3)


def test_ablation_initial_mapping(benchmark):
    """Balanced census removes part of the baseline's handicap."""

    def sweep():
        out = {}
        for mapping in ("random", "balanced", "clustered"):
            config = PlatformConfig(initial_mapping=mapping)
            out[mapping] = _median_perf("none", config, _runs())
        return out

    perf = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Baseline median settled joins/window by initial mapping:")
    for mapping, value in perf.items():
        print("  {:<10} {:6.2f}".format(mapping, value))
    # Every mapping sustains the application.  (The clustered floorplan
    # assigns whole column bands per stage, which oversubscribes task 2 —
    # its absolute level is reported, not asserted.)
    assert all(v > 0 for v in perf.values())


def test_ablation_ni_threshold(benchmark):
    """NI threshold sweep: too low churns, too high is inert."""

    def sweep():
        out = {}
        for threshold in (8, 24, 96):
            config = PlatformConfig(ni_threshold=threshold)
            out[threshold] = _median_perf(
                "network_interaction", config, _runs()
            )
        return out

    perf = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("NI median settled joins/window by switching threshold:")
    for threshold, value in perf.items():
        print("  threshold {:>3}  {:6.2f}".format(threshold, value))
    assert all(v > 0 for v in perf.values())


def test_ablation_ffw_timeout(benchmark):
    """FFW timeout sweep around the paper's 20 ms."""

    def sweep():
        out = {}
        for timeout_ms in (10, 20, 40):
            config = PlatformConfig(ffw_timeout_us=timeout_ms * 1000)
            out[timeout_ms] = _median_perf(
                "foraging_for_work", config, _runs()
            )
        return out

    perf = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("FFW median settled joins/window by task-switch timeout:")
    for timeout_ms, value in perf.items():
        print("  timeout {:>2} ms  {:6.2f}".format(timeout_ms, value))
    assert all(v > 0 for v in perf.values())


def test_ablation_queue_capacity(benchmark):
    """Buffer depth: deeper buffers absorb imbalance, delay the signal."""

    def sweep():
        out = {}
        for capacity in (2, 6, 16):
            config = PlatformConfig(queue_capacity=capacity)
            out[capacity] = {
                model: _median_perf(model, config, _runs())
                for model in ("none", "foraging_for_work")
            }
        return out

    perf = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Median settled joins/window by PE queue capacity:")
    for capacity, by_model in perf.items():
        print(
            "  capacity {:>2}  none {:6.2f}   ffw {:6.2f}".format(
                capacity, by_model["none"], by_model["foraging_for_work"]
            )
        )
    for by_model in perf.values():
        assert by_model["none"] > 0
        assert by_model["foraging_for_work"] > 0
