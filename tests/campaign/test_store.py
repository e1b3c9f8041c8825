"""Tests for the persistent JSONL result store."""

import json

import pytest

from repro.campaign.gc import gc_root
from repro.campaign.spec import RunDescriptor
from repro.campaign.store import ResultStore, decode_result, encode_result
from repro.experiments.runner import run_single
from repro.platform.config import PlatformConfig

CONFIG = PlatformConfig.small()


@pytest.fixture(scope="module")
def descriptor():
    return RunDescriptor("none", 7, 2, CONFIG, keep_series=True)


@pytest.fixture(scope="module")
def result(descriptor):
    return run_single(*descriptor.job())


class TestRoundTrip:
    def test_scalar_row_bit_identical(self, descriptor, result):
        record = json.loads(json.dumps(encode_result(descriptor, result)))
        assert decode_result(record).as_row() == result.as_row()

    def test_stats_survive(self, descriptor, result):
        record = json.loads(json.dumps(encode_result(descriptor, result)))
        restored = decode_result(record)
        assert restored.noc_stats == result.noc_stats
        assert restored.app_stats == result.app_stats

    def test_series_survives_with_int_census_keys(self, descriptor, result):
        record = json.loads(json.dumps(encode_result(descriptor, result)))
        series = decode_result(record).series
        assert series.as_dict() == result.series.as_dict()
        assert len(series) == len(result.series)
        assert series.task_ids == tuple(sorted(result.series.census))


class TestResultStore:
    def test_persists_across_instances(self, tmp_path, descriptor, result):
        store = ResultStore(str(tmp_path))
        store.save_result(descriptor, result)
        store.close()
        reopened = ResultStore(str(tmp_path))
        assert reopened.has_result(descriptor)
        assert reopened.load_result(descriptor).as_row() == result.as_row()

    def test_missing_key_is_a_miss(self, tmp_path, descriptor):
        store = ResultStore(str(tmp_path))
        assert not store.has_result(descriptor)
        assert descriptor.key() not in store

    def test_series_request_rejects_bare_record(self, tmp_path, result):
        bare = RunDescriptor("none", 7, 2, CONFIG, keep_series=False)
        kept = RunDescriptor("none", 7, 2, CONFIG, keep_series=True)
        stripped = run_single(*bare.job())
        store = ResultStore(str(tmp_path))
        store.save_result(bare, stripped)
        assert store.has_result(bare)
        assert not store.has_result(kept)  # same key, no stored series

    def test_last_record_wins(self, tmp_path, descriptor, result):
        store = ResultStore(str(tmp_path))
        store.save_result(descriptor, result)
        store.save_result(descriptor, result)
        store.close()
        reopened = ResultStore(str(tmp_path))
        assert len(reopened) == 1

    def test_torn_final_line_is_ignored(self, tmp_path, descriptor, result):
        store = ResultStore(str(tmp_path))
        store.save_result(descriptor, result)
        store.close()
        with open(store.path, "a") as handle:
            handle.write('{"key": "interrupted-wr')  # crash mid-append
        reopened = ResultStore(str(tmp_path))
        assert len(reopened) == 1
        assert reopened.has_result(descriptor)


class TestWorkerStreams:
    def test_worker_store_appends_to_private_stream(self, tmp_path,
                                                    descriptor, result):
        store = ResultStore(str(tmp_path), worker=2)
        store.save_result(descriptor, result)
        store.close()
        assert (tmp_path / "results.worker-2.jsonl").exists()
        assert not (tmp_path / "results.jsonl").exists()

    def test_readers_merge_worker_streams(self, tmp_path, descriptor,
                                          result):
        with ResultStore(str(tmp_path), worker=0) as store:
            store.save_result(descriptor, result)
        reader = ResultStore(str(tmp_path))
        assert reader.has_result(descriptor)
        assert reader.load_result(descriptor).as_row() == result.as_row()

    def test_gc_folds_streams_byte_identically(self, tmp_path,
                                               descriptor, result):
        with ResultStore(str(tmp_path), worker=0) as store:
            store.save_result(descriptor, result)
        worker_line = (tmp_path / "results.worker-0.jsonl").read_bytes()
        gc_root(str(tmp_path), dirs=[str(tmp_path)], apply=True)
        assert not (tmp_path / "results.worker-0.jsonl").exists()
        assert (tmp_path / "results.jsonl").read_bytes() == worker_line
        assert ResultStore(str(tmp_path)).has_result(descriptor)

    def test_save_record_requires_key(self, tmp_path):
        """The writer refuses every line the readers treat as garbage."""
        store = ResultStore(str(tmp_path))
        for record in ({"row": {}}, {"key": "", "row": {}},
                       {"key": 7, "row": {}}, {"key": ["x"], "row": {}}):
            with pytest.raises(ValueError):
                store.save_record(record)
        assert not (tmp_path / "results.jsonl").exists()
