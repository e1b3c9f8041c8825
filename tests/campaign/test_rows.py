"""Streaming row iterator: the one campaign merge, pinned.

``repro.campaign.rows`` is the merge every merged reader uses — main
stream before worker shards, last write per key wins, first-seen key
order, first campaign holding a key wins across directories — while
holding only keys and byte offsets.  These tests pin that merge against
an oracle that folds one :class:`~repro.campaign.store.ResultStore` per
directory (including under hypothesis-driven duplicate/torn/shard
streams), the never-lie rule for files rewritten underneath a running
iteration, and the streaming export paths built on top.
"""

import io
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.gc import csv_columns, export_csv, export_jsonl
from repro.campaign.index import campaign_dirs
from repro.campaign.rows import (
    iter_campaign_records,
    iter_merged_records,
    iter_merged_rows,
)
from repro.campaign.store import ResultStore, encode_line, worker_results_file

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

pool_keys = st.sampled_from(["k{:02d}".format(i) for i in range(6)])
values = st.integers(min_value=-10**6, max_value=10**6)


def make_record(key, value=0):
    """A minimal record with a scalar row (the decode paths accept it)."""
    return {
        "key": key,
        "model": "none",
        "seed": 1,
        "faults": 0,
        "row": {
            "model": "none",
            "seed": 1,
            "faults": 0,
            "settling_time_ms": float(value),
            "settled_performance": float(value),
            "recovery_time_ms": 0.0,
            "recovered_performance": float(value),
            "total_switches": value,
        },
    }


def write_stream(path, records, tail=""):
    """Write canonical record lines (plus an optional raw tail)."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(encode_line(record))
            handle.write("\n")
        handle.write(tail)


def make_store(directory, records, workers=(), tail=""):
    """Build a campaign dir: main stream + optional worker shards."""
    os.makedirs(directory, exist_ok=True)
    write_stream(
        os.path.join(directory, "results.jsonl"), records, tail=tail
    )
    for worker_id, shard in workers:
        write_stream(
            os.path.join(directory, worker_results_file(worker_id)), shard
        )
    return directory


def test_single_campaign_last_write_wins(tmp_path):
    store = make_store(
        str(tmp_path / "camp"),
        [make_record("a", 1), make_record("b", 2), make_record("a", 3)],
    )
    got = list(iter_campaign_records(store))
    assert [key for key, _ in got] == ["a", "b"]
    assert got[0][1]["row"]["total_switches"] == 3


def test_worker_streams_merge_after_main(tmp_path):
    store = make_store(
        str(tmp_path / "camp"),
        [make_record("a", 1)],
        workers=[(1, [make_record("a", 9), make_record("c", 5)]),
                 (0, [make_record("b", 4)])],
    )
    got = dict(iter_campaign_records(store))
    # Worker streams are read after main in sorted shard order: the
    # worker-1 rewrite of "a" supersedes the main line.
    assert got["a"]["row"]["total_switches"] == 9
    assert set(got) == {"a", "b", "c"}


def test_torn_and_keyless_lines_skipped(tmp_path):
    store = make_store(
        str(tmp_path / "camp"),
        [make_record("a", 1)],
        tail='{"no": "key"}\n[1, 2]\n{"key": "torn", "row"',
    )
    assert [key for key, _ in iter_campaign_records(store)] == ["a"]


def test_first_campaign_wins_across_dirs(tmp_path):
    first = make_store(
        str(tmp_path / "alpha"), [make_record("a", 1), make_record("b", 2)]
    )
    second = make_store(
        str(tmp_path / "beta"), [make_record("b", 9), make_record("c", 3)]
    )
    got = list(iter_merged_records([first, second]))
    assert [(campaign, key) for campaign, key, _ in got] == [
        ("alpha", "a"), ("alpha", "b"), ("beta", "c"),
    ]
    by_key = {key: record for _, key, record in got}
    assert by_key["b"]["row"]["total_switches"] == 2


def test_rewritten_file_yields_skip_never_wrong_data(tmp_path):
    store = make_store(
        str(tmp_path / "camp"),
        [make_record("a", 1), make_record("b", 2), make_record("c", 3)],
    )
    iterator = iter_campaign_records(store)
    first = next(iterator)
    assert first[0] == "a"
    # Rewrite the stream in place (same inode): the remaining winners'
    # offsets now point at other bytes — they must be skipped, never
    # yielded as another cell's data.
    write_stream(
        os.path.join(store, "results.jsonl"), [make_record("zzz", 99)]
    )
    rest = list(iterator)
    for key, record in rest:
        assert record.get("key") == key


def test_campaign_dirs_order_merges_sorted_campaigns(tmp_path):
    make_store(str(tmp_path / "bbb"), [make_record("b", 2)])
    make_store(str(tmp_path / "aaa"), [make_record("a", 1)])
    dirs = [str(tmp_path / name) for name in campaign_dirs(str(tmp_path))]
    got = list(iter_merged_records(dirs))
    assert [campaign for campaign, _, _ in got] == ["aaa", "bbb"]


def test_iter_merged_rows_skips_rowless_records(tmp_path):
    record = make_record("a", 1)
    bare = {"key": "bare", "model": "none"}
    null_row = {"key": "null-row", "model": "none", "row": None}
    store = str(tmp_path / "camp")
    os.makedirs(store)
    with open(os.path.join(store, "results.jsonl"), "w") as handle:
        handle.write(encode_line(record) + "\n")
        handle.write(encode_line(bare) + "\n")
        handle.write(encode_line(null_row) + "\n")
    rows = list(iter_merged_rows([store]))
    assert [(campaign, key) for campaign, key, _ in rows] == [
        ("camp", "a")
    ]
    assert rows[0][2] == record["row"]
    # CSV writes the same rows its header pass read; JSONL keeps every
    # record.
    sink = io.StringIO()
    assert export_csv([store], sink) == 1
    assert sink.getvalue().splitlines() == [
        "campaign,key,model,seed,faults,settling_time_ms,"
        "settled_performance,recovery_time_ms,recovered_performance,"
        "total_switches",
        "camp,a,none,1,0,1.0,1.0,0.0,1.0,1",
    ]
    assert export_jsonl([store], io.StringIO()) == 3


def store_fold(dirs):
    """Oracle merge: one ResultStore per directory, first holder wins."""
    merged = {}
    for directory in dirs:
        name = os.path.basename(directory)
        store = ResultStore(directory)
        for key in store.keys():
            merged.setdefault(key, (name, store.get(key)))
    return merged


@SETTINGS
@given(
    main_a=st.lists(st.tuples(pool_keys, values), max_size=8),
    shard_a=st.lists(st.tuples(pool_keys, values), max_size=5),
    main_b=st.lists(st.tuples(pool_keys, values), max_size=8),
)
def test_streaming_merge_equals_materialised(tmp_path_factory, main_a,
                                             shard_a, main_b):
    base = str(tmp_path_factory.mktemp("rows"))
    dirs = [
        make_store(
            os.path.join(base, "alpha"),
            [make_record(k, v) for k, v in main_a],
            workers=[(0, [make_record(k, v) for k, v in shard_a])],
        ),
        make_store(
            os.path.join(base, "beta"),
            [make_record(k, v) for k, v in main_b],
        ),
    ]
    oracle = store_fold(dirs)
    streamed = list(iter_merged_records(dirs))
    assert [key for _, key, _ in streamed] == list(oracle)
    for campaign, key, record in streamed:
        assert oracle[key] == (campaign, record)


def test_streaming_exports_match_expected_output(tmp_path):
    records = [make_record("a", 1), make_record("b", 2), make_record("c", 3)]
    dirs = [
        make_store(str(tmp_path / "alpha"), records[:2]),
        make_store(str(tmp_path / "beta"), records[2:]),
    ]
    jsonl = io.StringIO()
    assert export_jsonl(dirs, jsonl) == 3
    assert jsonl.getvalue() == "".join(encode_line(r) + "\n" for r in records)

    columns = csv_columns(dirs)
    assert "scenario" not in columns
    csv_out = io.StringIO()
    assert export_csv(dirs, csv_out) == 3
    assert csv_out.getvalue().splitlines() == [
        "campaign,key," + ",".join(columns),
        "alpha,a,none,1,0,1.0,1.0,0.0,1.0,1",
        "alpha,b,none,1,0,2.0,2.0,0.0,2.0,2",
        "beta,c,none,1,0,3.0,3.0,0.0,3.0,3",
    ]


def test_exported_jsonl_lines_byte_identical_to_store(tmp_path):
    records = [make_record("a", 1), make_record("b", 2)]
    store = make_store(str(tmp_path / "camp"), records)
    sink = io.StringIO()
    export_jsonl([store], sink)
    expected = "".join(encode_line(r) + "\n" for r in records)
    assert sink.getvalue() == expected
    # And they parse back to the exact records.
    parsed = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert parsed == records
