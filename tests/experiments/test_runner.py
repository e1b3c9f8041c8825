"""Tests for the run harness (on the small fast config)."""

import os

import pytest

from repro.campaign.spec import CampaignSpec, RunDescriptor
from repro.experiments.runner import (
    RunError,
    default_processes,
    default_seeds,
    iter_runs,
    run_cell,
    run_single,
)
from repro.platform.config import PlatformConfig


@pytest.fixture(scope="module")
def small_config():
    return PlatformConfig.small()


def _cells(config, seeds):
    """Zero-fault ``none`` cells over ``seeds``, in seed order."""
    return CampaignSpec(
        name="runner", models=("none",), seeds=seeds, config=config
    ).expand()


def test_run_single_populates_fields(small_config):
    result = run_single("none", seed=5, config=small_config)
    assert result.model == "none"
    assert result.seed == 5
    assert result.faults == 0
    assert result.settling_time_ms > 0
    assert result.settled_performance >= 0
    assert result.recovery_time_ms == 0.0
    assert result.recovered_performance == result.settled_performance
    assert result.series is not None
    assert result.app_stats["generated"] > 0


def test_run_single_with_faults_measures_recovery(small_config):
    result = run_single("none", seed=5, faults=4, config=small_config)
    assert result.faults == 4
    # Zero means the metric was already inside the post-fault steady band
    # at injection time (the paper's Q1 = 3 ms rows are the same effect).
    assert result.recovery_time_ms >= 0
    assert result.noc_stats["sent"] > 0


def test_run_single_deterministic(small_config):
    a = run_single("ffw", seed=9, config=small_config, keep_series=False)
    b = run_single("ffw", seed=9, config=small_config, keep_series=False)
    assert a.settled_performance == b.settled_performance
    assert a.app_stats == b.app_stats


def test_keep_series_false_drops_series(small_config):
    result = run_single("none", seed=5, config=small_config,
                        keep_series=False)
    assert result.series is None


def test_iter_runs_sequential(small_config):
    results = list(iter_runs(_cells(small_config, (1, 2)), processes=0))
    assert [r.seed for r in results] == [1, 2]
    assert len({r.settled_performance for r in results}) >= 1


def test_run_cell_resolves_alias(small_config):
    result = run_cell(RunDescriptor("ffw", 1, 0, small_config))
    assert result.model == "foraging_for_work"


def test_as_row_export(small_config):
    result = run_single("none", seed=5, config=small_config)
    row = result.as_row()
    assert row["model"] == "none"
    assert "settled_performance" in row


def test_default_seeds():
    assert default_seeds(3) == [1000, 1001, 1002]
    assert default_seeds(2, base=5) == [5, 6]


def test_default_processes_env(monkeypatch):
    monkeypatch.setenv("REPRO_PROCESSES", "3")
    assert default_processes() == 3
    monkeypatch.delenv("REPRO_PROCESSES")
    assert default_processes() >= 1


def test_empty_processes_env_reads_as_unset(monkeypatch, small_config):
    """``REPRO_PROCESSES=`` keeps each default: the CPU count for the
    CLI, a sequential sweep for the library."""
    monkeypatch.setenv("REPRO_PROCESSES", "")
    assert default_processes() == (os.cpu_count() or 1)
    results = list(iter_runs(_cells(small_config, (1, 2))))
    assert [r.seed for r in results] == [1, 2]


def test_iter_runs_parallel_matches_sequential(small_config):
    cells = _cells(small_config, (1, 2, 3))
    sequential = list(iter_runs(cells, processes=0))
    parallel = list(iter_runs(cells, processes=2))
    assert [r.as_row() for r in parallel] == [
        r.as_row() for r in sequential
    ]


def test_failing_seed_reports_cell_context(small_config):
    cell = RunDescriptor("not_a_model", 1, 3, small_config)
    with pytest.raises(RunError) as excinfo:
        list(iter_runs([cell], processes=0))
    err = excinfo.value
    assert err.descriptor == cell
    assert "('not_a_model', 1, 3)" in str(err)
    assert "KeyError" in err.details


def test_failing_seed_reports_cell_context_parallel(small_config):
    cells = [
        RunDescriptor("not_a_model", seed, 0, small_config)
        for seed in (1, 2)
    ]
    with pytest.raises(RunError) as excinfo:
        list(iter_runs(cells, processes=2))
    assert excinfo.value.descriptor == cells[0]


def test_iter_runs_streams_in_order(small_config):
    seen = [
        result.seed
        for result in iter_runs(_cells(small_config, (4, 5)), processes=0)
    ]
    assert seen == [4, 5]
