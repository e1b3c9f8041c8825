"""Tests for the sharded campaign executor and checkpoint/resume."""

import os

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.experiments.runner import RunError
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario


@pytest.fixture
def spec():
    return CampaignSpec(
        name="exec-test",
        models=("none", "foraging_for_work"),
        seeds=(1, 2),
        fault_counts=(0, 2),
        config=PlatformConfig.small(),
    )


def test_cold_run_executes_every_cell(spec):
    report = run_campaign(spec, processes=1)
    assert report.executed == spec.size()
    assert report.cached == 0
    assert [r.seed for r in report.results] == [
        d.seed for d in report.descriptors
    ]


def test_results_follow_grid_order(spec):
    report = run_campaign(spec, processes=1)
    for descriptor, result in report.pairs():
        assert (result.model, result.seed, result.faults) == (
            descriptor.model, descriptor.seed, descriptor.faults
        )


def test_second_run_is_all_cache_hits(spec, tmp_path):
    store = str(tmp_path)
    cold = run_campaign(spec, store=store, processes=1)
    warm = run_campaign(spec, store=store, processes=1)
    assert warm.executed == 0
    assert warm.cached == spec.size()
    assert [r.as_row() for r in warm.results] == [
        r.as_row() for r in cold.results
    ]


def test_interrupted_campaign_resumes(spec, tmp_path):
    store_dir = str(tmp_path)
    descriptors = spec.expand()
    # Simulate an interrupted sweep: only the first three cells finished.
    with ResultStore(store_dir) as store:
        from repro.experiments.runner import run_single

        for descriptor in descriptors[:3]:
            store.save_result(descriptor, run_single(*descriptor.job()))
    report = run_campaign(spec, store=store_dir, processes=1)
    assert report.cached == 3
    assert report.executed == spec.size() - 3


@pytest.mark.parametrize("processes", [0, 2])
def test_failing_cell_names_itself(processes):
    """A scenario pinning node 99 fails on the 4x4 mesh; the error must
    name that cell, not the zero-fault cell of the same model and seed."""
    off_mesh = FaultScenario.from_dict({
        "name": "off-mesh",
        "events": [{"at_us": 10_000, "victims": [99]}],
    })
    spec = CampaignSpec(
        name="failing",
        models=("none",),
        seeds=(1,),
        fault_counts=(0,),
        scenarios=(off_mesh,),
        config=PlatformConfig.small(),
    )
    zero_fault, failing = spec.expand()
    assert failing.scenario is off_mesh
    with pytest.raises(RunError) as excinfo:
        run_campaign(spec, processes=processes)
    assert excinfo.value.descriptor == failing
    # The headline names the cell; the traceback below it may too.
    headline = str(excinfo.value).splitlines()[0]
    assert "off-mesh" in headline


def test_fresh_recomputes_despite_store(spec, tmp_path):
    store = str(tmp_path)
    run_campaign(spec, store=store, processes=1)
    fresh = run_campaign(spec, store=store, processes=1, use_cache=False)
    assert fresh.executed == spec.size()
    assert fresh.cached == 0


def test_parallel_matches_sequential(spec):
    sequential = run_campaign(spec, processes=1)
    parallel = run_campaign(spec, processes=2)
    assert [r.as_row() for r in parallel.results] == [
        r.as_row() for r in sequential.results
    ]


def test_progress_reports_every_cell(spec, tmp_path):
    calls = []
    run_campaign(
        spec,
        store=str(tmp_path),
        processes=1,
        progress=lambda done, total, cached: calls.append(
            (done, total, cached)
        ),
    )
    assert calls[-1] == (spec.size(), spec.size(), 0)
    assert len(calls) == spec.size()
    # Resumed: one up-front report covering the cached cells.
    calls.clear()
    run_campaign(
        spec,
        store=str(tmp_path),
        processes=1,
        progress=lambda done, total, cached: calls.append(
            (done, total, cached)
        ),
    )
    assert calls == [(spec.size(), spec.size(), spec.size())]


def test_accepts_open_store_without_closing_it(spec, tmp_path):
    with ResultStore(str(tmp_path)) as store:
        run_campaign(spec, store=store, processes=1)
        # Still usable: the executor only closes stores it opened.
        assert len(store) == spec.size()
        warm = run_campaign(spec, store=store, processes=1)
    assert warm.executed == 0


def test_spec_provenance_written(spec, tmp_path):
    run_campaign(spec, store=str(tmp_path), processes=1)
    assert (tmp_path / "spec.json").exists()


def test_resume_reads_results_stream_exactly_once(spec, tmp_path,
                                                  monkeypatch):
    """Regression: resume paths must hit the memoised key set, never
    re-read ``results.jsonl`` per completed-key check — the whole warm
    pass performs one scan of one stream file."""
    store_dir = str(tmp_path)
    run_campaign(spec, store=store_dir, processes=0)
    scans = []
    real_scan = ResultStore._scan_file

    def counting_scan(self, path):
        scans.append(os.path.basename(path))
        return real_scan(self, path)

    monkeypatch.setattr(ResultStore, "_scan_file", counting_scan)
    warm = run_campaign(spec, store=store_dir, processes=0)
    assert warm.executed == 0
    assert warm.cached == spec.size()  # every cell was a key-set hit
    assert scans == ["results.jsonl"]


def test_completed_key_checks_never_rescan(spec, tmp_path):
    store_dir = str(tmp_path)
    run_campaign(spec, store=store_dir, processes=0)
    store = ResultStore(store_dir)
    assert store.scans == 1
    keys = store.keys()
    for descriptor in spec.expand():
        assert descriptor.key() in keys
        assert store.has_result(descriptor)
    assert store.scans == 1  # memoised: zero additional file reads
