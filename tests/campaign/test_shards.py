"""Distributed worker shards: partition, concurrency, folding by gc.

Two workers draining disjoint shards of one campaign — each opened
before the other wrote anything, exactly like concurrent processes on a
shared filesystem — must produce the same merged ``results.jsonl``
content (order-insensitive) as a single sequential run.
"""

import os

import pytest

from repro.campaign.executor import run_campaign, shard_of
from repro.campaign.gc import gc_root
from repro.campaign.paper import artifact
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import RESULTS_FILE, ResultStore, worker_files
from repro.platform.config import PlatformConfig

_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)


@pytest.fixture
def spec():
    return CampaignSpec(
        name="shard-test",
        models=("none", "foraging_for_work"),
        seeds=(1, 2),
        fault_counts=(0, 2),
        config=_CONFIG,
    )


def _lines(directory):
    with open(os.path.join(directory, RESULTS_FILE)) as handle:
        return sorted(line.rstrip("\n") for line in handle if line.strip())


def test_shard_of_partitions_all_keys(spec):
    keys = [descriptor.key() for descriptor in spec.expand()]
    for workers in (2, 3, 5):
        shards = [shard_of(key, workers) for key in keys]
        assert all(0 <= shard < workers for shard in shards)
        # Same key, same shard — on any worker, any machine.
        assert shards == [shard_of(key, workers) for key in keys]


def test_two_workers_merge_bit_identical_to_sequential(spec, tmp_path):
    sequential_dir = str(tmp_path / "sequential")
    shard_dir = str(tmp_path / "sharded")
    sequential = run_campaign(spec, store=sequential_dir, processes=0)

    # Both stores open *before* either worker runs: neither sees the
    # other's rows, like two machines starting simultaneously.
    store0 = ResultStore(shard_dir, worker=0)
    store1 = ResultStore(shard_dir, worker=1)
    report0 = run_campaign(spec, store=store0, processes=0,
                           workers=2, worker_id=0)
    report1 = run_campaign(spec, store=store1, processes=0,
                           workers=2, worker_id=1)
    store0.close()
    store1.close()

    # Disjoint shards covering the grid.
    assert report0.executed + report1.executed == spec.size()
    assert report0.pending_elsewhere == report1.executed
    assert report1.pending_elsewhere == report0.executed

    report = gc_root(str(tmp_path), dirs=[shard_dir], apply=True)
    assert report.summaries[0].worker_files == 2
    assert worker_files(shard_dir) == []
    # Order-insensitive byte identity with the sequential store.
    assert sorted(_lines(shard_dir)) == sorted(_lines(sequential_dir))

    # A merge pass over the folded store recomputes nothing and
    # reassembles the full grid bit-identically.
    final = run_campaign(spec, store=shard_dir, processes=0)
    assert final.executed == 0
    assert [r.as_row() for r in final.results] == [
        r.as_row() for r in sequential.results
    ]


def test_worker_results_survive_without_reconcile(spec, tmp_path):
    """Merged-on-read: the main stream is not required to see shards."""
    store = ResultStore(str(tmp_path), worker=3)
    run_campaign(spec, store=store, processes=0, workers=4, worker_id=3)
    store.close()
    reader = ResultStore(str(tmp_path))
    mine = [
        descriptor.key() for descriptor in spec.expand()
        if shard_of(descriptor.key(), 4) == 3
    ]
    assert set(reader.keys()) == set(mine)


def test_only_worker_zero_persists_index_entries(spec, tmp_path):
    """A fleet must not append the same index backlog N times: workers
    other than 0 refresh the dedup index in memory only."""
    root = str(tmp_path)
    seed_dir = os.path.join(root, "seed")
    run_campaign(spec, store=seed_dir, processes=0)
    index_path = os.path.join(root, "index.jsonl")

    other = CampaignSpec(
        name="other", models=("none",), seeds=(1,), fault_counts=(0, 2),
        config=_CONFIG,
    )
    store1 = ResultStore(os.path.join(root, "other"), worker=1)
    run_campaign(other, store=store1, processes=0, workers=2, worker_id=1,
                 dedup_root=root)
    store1.close()
    assert not os.path.exists(index_path)  # non-zero worker: memory only

    store0 = ResultStore(os.path.join(root, "other"), worker=0)
    run_campaign(other, store=store0, processes=0, workers=2, worker_id=0,
                 dedup_root=root)
    store0.close()
    assert os.path.exists(index_path)      # worker 0 persisted the scan


def test_worker_id_validation(spec):
    with pytest.raises(ValueError):
        run_campaign(spec, workers=2, worker_id=2, processes=0)
    with pytest.raises(ValueError):
        run_campaign(spec, workers=2, worker_id=None, processes=0)
    with pytest.raises(ValueError):
        run_campaign(spec, worker_id=1, processes=0)


def test_partial_worker_report_refuses_artifact(spec, tmp_path):
    report = run_campaign(spec, store=str(tmp_path), processes=0,
                          workers=2, worker_id=0)
    assert report.pending_elsewhere > 0
    with pytest.raises(ValueError):
        artifact(report)
