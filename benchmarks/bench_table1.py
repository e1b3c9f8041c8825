"""Table I reproduction: settling time and relative performance, no faults.

Paper (DATE 2020, Table I, 100 runs):

    Model                 Settle Q1/Q2/Q3    Perf Q1/Q2/Q3
    No Intelligence        6 /  6 /   7      96 / 100 / 103 %
    Network Interaction   12 / 56 /  58      93 / 102 / 108 %
    Foraging For Work     10 / 86 / 170     105 / 114 / 124 %

Reproduction targets (shape, not absolute numbers): the baseline settles
fastest and defines 100 %; NI lands near the baseline with wider spread;
FFW settles slowest but to clearly the highest performance.

Run with ``pytest benchmarks/bench_table1.py --benchmark-only -s`` to see
the regenerated table.  The cells run through the campaign executor, the
same path as the CLI's ``table1``.
"""

import pytest

from benchmarks.harness import runs_per_cell, seed_base
from repro.campaign import paper
from repro.campaign.executor import run_campaign
from repro.experiments.tables import format_table


@pytest.fixture(scope="module")
def table1_rows():
    spec = paper.table1_spec(runs=runs_per_cell(), seed_base=seed_base())
    return paper.artifact(run_campaign(spec))


def test_table1_reproduction(benchmark, table1_rows):
    rows = benchmark.pedantic(
        lambda: table1_rows, rounds=1, iterations=1
    )
    print()
    print("Table I - settling time (ms) and relative performance,")
    print("{} runs per model (paper: 100):".format(runs_per_cell()))
    print(format_table(rows, "table1"))

    by_model = {r["model"]: r for r in rows}
    none = by_model["none"]
    ni = by_model["network_interaction"]
    ffw = by_model["foraging_for_work"]

    # The highlighted case normalises to 100 %.
    assert none["perf_q2"] == pytest.approx(100.0)
    # Baseline settles no slower than the adaptive models (fixed mapping,
    # only pipeline fill).  In this substrate the fill ramp (~250 ms of
    # ms-scale service times) dominates all three settling times, so the
    # paper's 10x ordering compresses to "baseline <= adaptive" within a
    # few sampling windows of tolerance.
    assert none["settling_q2"] <= ni["settling_q2"] + 50.0
    assert none["settling_q2"] <= ffw["settling_q2"] + 50.0
    # FFW reaches clearly the best settled performance (paper: 114 %).
    assert ffw["perf_q2"] > 108.0
    assert ffw["perf_q2"] > ni["perf_q2"]
    # NI lands near the baseline (paper: 102 %, Q1 below 100).
    assert 85.0 < ni["perf_q2"] < ffw["perf_q2"]
