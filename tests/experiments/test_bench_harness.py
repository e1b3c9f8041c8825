"""Tests for the benchmark harness helpers and the perf gate's check.

No CI job runs the paper benches, and a linter cannot see that a name
was deleted from the module it is imported from, so every bench module
is imported here: a stale import fails tier-1 instead of the next
paper-scale run.
"""

import importlib
import os

import pytest

from benchmarks.harness import (
    GATED_BENCHMARK,
    REPO_ROOT,
    check_regression,
    runs_per_cell,
    seed_base,
    zero_fault_results,
)
from repro.campaign.paper import MODELS, TABLE2_FAULTS
from repro.platform.config import PlatformConfig

#: ``benchmarks/bench_*.py`` plus the harness they share.
BENCH_MODULES = sorted(
    name[:-3]
    for name in os.listdir(os.path.join(REPO_ROOT, "benchmarks"))
    if name.startswith("bench_") and name.endswith(".py")
) + ["harness"]


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_module_imports(name):
    importlib.import_module("benchmarks." + name)


def test_models_match_paper_order():
    assert MODELS == ("none", "network_interaction", "foraging_for_work")


def test_table2_fault_counts_match_paper():
    assert TABLE2_FAULTS == (0, 2, 4, 8, 16, 32)


def test_runs_per_cell_env(monkeypatch):
    monkeypatch.delenv("REPRO_RUNS", raising=False)
    assert runs_per_cell() == 15
    monkeypatch.setenv("REPRO_RUNS", "100")
    assert runs_per_cell() == 100


def test_seed_base_env(monkeypatch):
    monkeypatch.delenv("REPRO_SEED_BASE", raising=False)
    assert seed_base() == 1000
    monkeypatch.setenv("REPRO_SEED_BASE", "7")
    assert seed_base() == 7


def test_zero_fault_results_run_the_grid(monkeypatch):
    monkeypatch.delenv("REPRO_SEED_BASE", raising=False)
    monkeypatch.delenv("REPRO_PROCESSES", raising=False)
    config = PlatformConfig.small(horizon_us=40_000)
    results = zero_fault_results(("none", "ffw"), config, 2)
    assert [(r.model, r.seed, r.faults) for r in results] == [
        ("none", 1000, 0), ("none", 1001, 0),
        ("foraging_for_work", 1000, 0), ("foraging_for_work", 1001, 0),
    ]


_BASELINE = {"benchmarks": {GATED_BENCHMARK: 0.004, "other": 1.0}}


@pytest.mark.parametrize("medians, baseline, failure", [
    ({GATED_BENCHMARK: 0.0049}, _BASELINE, None),
    ({GATED_BENCHMARK: 0.0051}, _BASELINE,
     ": median 0.0051s exceeds 125% of baseline 0.0040s"),
    ({"other": 1.0}, _BASELINE, ": missing from this run"),
    ({GATED_BENCHMARK: 0.004}, {"benchmarks": {"other": 1.0}},
     ": missing from the baseline"),
    ({GATED_BENCHMARK: 0.004}, {}, ": missing from the baseline"),
], ids=["within", "over", "missing-run", "missing-baseline", "empty-baseline"])
def test_check_regression(medians, baseline, failure):
    expected = None if failure is None else GATED_BENCHMARK + failure
    assert check_regression(medians, baseline) == expected
