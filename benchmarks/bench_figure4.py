"""Figure 4 reproduction: throughput and task-distribution time series.

Paper: two fault scenarios (5 faults; 42 faults = 1/3 of Centurion), three
models each, 0-1000 ms.  Systems settle from the random initial mapping
(shaded region), faults land at 500 ms, and the adaptive models resettle
into a new task topology that recovers part of the lost performance.

Reproduction targets per panel:

* a settling transient in the first half for the adaptive models;
* a visible drop in active nodes / throughput at 500 ms;
* partial recovery for FFW after large fault counts (more post-fault
  throughput than the sheer surviving-node fraction would give the frozen
  baseline mapping);
* the task-census panels stay near the 1:3:1 ratio (~25/75/25 nodes
  on the 128-node grid) and step down at the fault.

The six runs go through the campaign executor, the same path as the
CLI's ``figure4``.
"""

import pytest

from repro.campaign import paper
from repro.campaign.executor import run_campaign
from repro.experiments.figures import render_figure4


@pytest.fixture(scope="module")
def figure4_data():
    return paper.artifact(run_campaign(paper.figure4_spec(seed=1000)))


def _mean(values):
    return sum(values) / max(1, len(values))


def test_figure4_reproduction(benchmark, figure4_data):
    data = benchmark.pedantic(lambda: figure4_data, rounds=1, iterations=1)
    print()
    print(render_figure4(data, metric="active_nodes"))

    for faults, by_model in data.items():
        for model, result in by_model.items():
            series = result.series
            pre = series.window_slice(300, 500)
            post = series.window_slice(800, 1000)
            pre_joins = _mean([series.joins[i] for i in pre])
            post_joins = _mean([series.joins[i] for i in post])
            pre_active = _mean([series.active_nodes[i] for i in pre])
            post_active = _mean([series.active_nodes[i] for i in post])

            if faults >= 42:
                # Large fault case: clear performance loss for everyone.
                assert post_joins < pre_joins
                assert post_active < pre_active
            # Work never stops entirely.
            assert post_joins > 0

    # Task census ~1:3:1 before the fault for the baseline (25/75/25).
    baseline = data[5]["none"].series
    idx = baseline.window_slice(300, 500)
    census2 = _mean([baseline.census[2][i] for i in idx])
    census1 = _mean([baseline.census[1][i] for i in idx])
    census3 = _mean([baseline.census[3][i] for i in idx])
    assert 60 <= census2 <= 92
    assert 15 <= census1 <= 36
    assert 15 <= census3 <= 36

    # FFW retains more throughput than the frozen baseline at 42 faults.
    ffw_post = _mean(
        [data[42]["foraging_for_work"].series.joins[i]
         for i in data[42]["foraging_for_work"].series.window_slice(800, 1000)]
    )
    none_post = _mean(
        [data[42]["none"].series.joins[i]
         for i in data[42]["none"].series.window_slice(800, 1000)]
    )
    assert ffw_post >= none_post

    # Adaptive models actually switch tasks; the baseline never does.
    assert sum(data[5]["none"].series.task_switches) == 0
    assert sum(data[5]["foraging_for_work"].series.task_switches) > 0
