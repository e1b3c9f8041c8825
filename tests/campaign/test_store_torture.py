"""Store-v2 torture layer: property tests over the persistence formats.

Hypothesis drives synthetic record streams (no simulations — fast)
through the failure modes a long-lived multi-writer store actually
meets: torn and truncated appends, garbage lines interleaved with good
ones, duplicate keys, worker shard streams, index/row divergence, and
export round-trips.  The properties pinned here are the ones every
other layer (executor resume, cross-campaign dedup, gc) builds on:

* a reader never invents data — every loaded record byte-matches one
  that was written, no matter where a crash cut the file;
* the last complete write per key wins, and every reader (store, gc
  survey, streaming merge, index) agrees on which lines are records;
* any index/row divergence is repaired by ``gc --apply`` (rebuild), and
  the dry run reports it exactly;
* exported JSONL rows are byte-identical to store lines (lossless).
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.gc import export_jsonl, gc_root, summarize
from repro.campaign.index import StoreIndex
from repro.campaign.rows import iter_campaign_records, iter_merged_records
from repro.campaign.store import (
    ResultStore,
    encode_line,
    iter_jsonl,
    record_key,
    worker_results_file,
)

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Small key pool so duplicate-key (supersede) paths are actually hit.
pool_keys = st.sampled_from(["k{:02d}".format(i) for i in range(8)])
values = st.integers(min_value=-10**6, max_value=10**6)


def make_record(key, value=0):
    """A minimal record the full decode path accepts."""
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
        "app_stats": {},
        "noc_stats": {},
        "total_switches": value,
        "series": None,
    }


def write_lines(path, lines):
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)


@given(writes=st.lists(st.tuples(pool_keys, values), max_size=30))
@SETTINGS
def test_duplicate_keys_last_write_wins(writes):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "results.jsonl")
        write_lines(
            path,
            [encode_line(make_record(k, v)) + "\n" for k, v in writes],
        )
        store = ResultStore(directory)
        expected = dict(writes)  # dict() keeps the last value per key
        assert set(store.keys()) == set(expected)
        for key, value in expected.items():
            assert store.get(key)["total_switches"] == value


cut_keys = st.lists(
    st.text("abcdef0123456789", min_size=4, max_size=12),
    min_size=1, max_size=12, unique=True,
)


def write_cut_stream(path, keys, data):
    """Write the records of ``keys`` cut at a drawn byte offset (a crash
    mid-append); returns ``(fully_written, started)`` key sets."""
    lines = [
        (encode_line(make_record(k, i)) + "\n").encode("utf-8")
        for i, k in enumerate(keys)
    ]
    blob = b"".join(lines)
    # Besides arbitrary offsets, favour the two cuts that matter most:
    # on a line boundary, and after a closing brace but before its
    # newline (a complete record whose line is still torn).
    ends = []
    for line in lines:
        ends.append((ends[-1] if ends else 0) + len(line))
    cut = data.draw(st.one_of(
        st.integers(min_value=0, max_value=len(blob)),
        st.sampled_from(ends + [end - 1 for end in ends]),
    ))
    with open(path, "wb") as handle:
        handle.write(blob[:cut])
    consumed = 0
    fully_written = set()
    started = set()
    for key, line in zip(keys, lines):
        if consumed + len(line) <= cut:
            fully_written.add(key)
        if consumed < cut:
            started.add(key)
        consumed += len(line)
    return fully_written, started


@given(keys=cut_keys, data=st.data())
@SETTINGS
def test_truncation_never_invents_records(keys, data):
    """A crash can cut the stream anywhere; the reader keeps exactly the
    complete-line prefix (a final line without its newline is torn, even
    when the cut lands on its closing brace) and never yields a record
    that was not written."""
    with tempfile.TemporaryDirectory() as directory:
        fully_written, _started = write_cut_stream(
            os.path.join(directory, "results.jsonl"), keys, data
        )
        store = ResultStore(directory)
        assert set(store.keys()) == fully_written
        for key in store.keys():
            assert store.get(key) == make_record(key, keys.index(key))


@given(keys=cut_keys, data=st.data(), via_gc=st.booleans())
@SETTINGS
def test_append_after_torn_tail_keeps_every_record(keys, data, via_gc):
    """Cut the main stream anywhere, reopen, then append a record —
    directly or by folding a worker stream with ``gc --apply`` — and
    reopen again: every fully written record and the new one load; a
    torn tail never swallows the next append."""
    fresh = make_record("fresh", 99)
    with tempfile.TemporaryDirectory() as directory:
        fully_written, started = write_cut_stream(
            os.path.join(directory, "results.jsonl"), keys, data
        )
        store = ResultStore(directory)
        if via_gc:
            write_lines(
                os.path.join(directory, worker_results_file(1)),
                [encode_line(fresh) + "\n"],
            )
            report = gc_root(directory, dirs=[directory], apply=True)
            assert report.summaries[0].worker_files == 1
        else:
            store.save_record(fresh)
            store.close()
        reopened = ResultStore(directory)
        loaded = set(reopened.keys())
        # A tail cut after its closing brace becomes a complete line once
        # the newline lands; it is a record that was written in full.
        assert fully_written | {"fresh"} <= loaded <= started | {"fresh"}
        assert reopened.get("fresh") == fresh
        for key in loaded - {"fresh"}:
            assert reopened.get(key) == make_record(key, keys.index(key))


line_kinds = st.one_of(
    st.tuples(st.just("record"), pool_keys, values),
    st.tuples(st.just("garbage"),
              st.sampled_from(["not json at all", "[1, 2, 3]", "42",
                               '"just a string"', "{\"no\": \"key\"}",
                               '{"key": ["x"]}', '{"key": {"k": 1}}',
                               '{"key": 7}', '{"key": ""}']),
              st.just(0)),
    st.tuples(st.just("blank"), st.just(""), st.just(0)),
)


@given(
    parts=st.lists(line_kinds, max_size=25),
    torn_tail=st.booleans(),
)
@SETTINGS
def test_interleaved_garbage_and_torn_tail_are_ignored(parts, torn_tail):
    lines = []
    expected = {}
    for kind, payload, value in parts:
        if kind == "record":
            lines.append(encode_line(make_record(payload, value)) + "\n")
            expected[payload] = value
        elif kind == "garbage":
            lines.append(payload + "\n")
        else:
            lines.append("\n")
    if torn_tail:
        lines.append('{"key": "torn-wr')  # interrupted append, no newline
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "camp")
        os.makedirs(directory)
        write_lines(os.path.join(directory, "results.jsonl"), lines)
        store = ResultStore(directory)
        assert set(store.keys()) == set(expected)
        for key, value in expected.items():
            assert store.get(key)["total_switches"] == value
        # Every reader agrees on which lines are records.
        records = sum(1 for kind, _p, _v in parts if kind == "record")
        summary = summarize(directory)
        assert summary.stored == len(expected)
        assert summary.superseded == records - len(expected)
        assert summary.torn == len(parts) - records + torn_tail
        assert {key for key, _r in iter_campaign_records(directory)} == (
            set(expected)
        )
        index = StoreIndex(root)
        index.refresh()
        assert set(index.keys()) == set(expected)


@given(
    shards=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), pool_keys, values),
        max_size=24,
    ),
)
@SETTINGS
def test_worker_streams_merge_and_fold_losslessly(shards):
    """Records spread over main + worker streams read as one store, and
    ``gc --apply`` folds them into results.jsonl without changing a byte
    of any surviving record line."""
    with tempfile.TemporaryDirectory() as directory:
        files = {}
        expected = {}
        for shard, key, value in shards:
            # Shard 0 is the main stream; worker shards get key-disjoint
            # namespaces, mirroring the executor's hash partition.
            if shard == 0:
                name = "results.jsonl"
            else:
                name = worker_results_file(shard)
                key = "w{}-{}".format(shard, key)
            files.setdefault(name, []).append(
                encode_line(make_record(key, value)) + "\n"
            )
            expected[key] = value
        for name, lines in files.items():
            write_lines(os.path.join(directory, name), lines)
        store = ResultStore(directory)
        assert {k: r["total_switches"] for k, r in
                ((k, store.get(k)) for k in store.keys())} == expected
        report = gc_root(directory, dirs=[directory], apply=True)
        assert report.summaries[0].worker_files == sum(
            1 for name in files if name != "results.jsonl"
        )
        assert not [
            name for name in os.listdir(directory)
            if name.startswith("results.worker-")
        ]
        reopened = ResultStore(directory)
        # Back to (at most) the single main stream.
        assert reopened.scans == (
            1 if os.path.exists(os.path.join(directory, "results.jsonl"))
            else 0
        )
        assert {k: reopened.get(k)["total_switches"]
                for k in reopened.keys()} == expected
        # One line per key: the very line last written for it.
        main = os.path.join(directory, "results.jsonl")
        if expected:
            with open(main) as handle:
                assert sorted(handle) == sorted(
                    encode_line(make_record(k, v)) + "\n"
                    for k, v in expected.items()
                )


def test_gc_splits_lines_like_every_reader():
    """A bare carriage return is JSON whitespace, not a line break: the
    store reads such a worker-stream line as a record, so ``gc --apply``
    must fold it (and every line after it) instead of dropping the
    stream."""
    lines = ['{"key":"a",\r"row":{}}\n', encode_line({"key": "b"}) + "\n"]
    with tempfile.TemporaryDirectory() as directory:
        write_lines(os.path.join(directory, worker_results_file(1)), lines)
        assert set(ResultStore(directory).keys()) == {"a", "b"}
        gc_root(directory, dirs=[directory], apply=True)
        with open(os.path.join(directory, "results.jsonl"), newline="") as f:
            assert f.read() == (
                encode_line({"key": "a", "row": {}}) + "\n" + lines[1]
            )
        assert set(ResultStore(directory).keys()) == {"a", "b"}


corruptions = st.lists(
    st.sampled_from(
        ["shift_offsets", "wrong_campaign", "drop_index", "bogus_entry",
         "compact_rows", "append_unindexed", "truncate_index",
         "mistyped_lines"]
    ),
    min_size=1, max_size=4,
)


def mistyped_index_lines(key):
    """Well-formed JSON index lines whose fields have the wrong types."""
    return [
        json.dumps({"campaign": "a", "key": ["x"], "offset": 0}) + "\n",
        json.dumps({"campaign": "a", "key": key, "offset": "0"}) + "\n",
        json.dumps({"campaign": "a", "key": key, "offset": 1.5}) + "\n",
        json.dumps({"campaign": 7, "key": key, "offset": 0}) + "\n",
        json.dumps({"campaign": "a", "scanned": "12"}) + "\n",
    ]


@given(
    keys_a=st.lists(st.text("0123456789abcdef", min_size=6, max_size=6),
                    min_size=1, max_size=6, unique=True),
    keys_b=st.lists(st.text("ghijklmn", min_size=6, max_size=6),
                    min_size=1, max_size=6, unique=True),
    ops=corruptions,
)
@SETTINGS
def test_index_row_divergence_always_repaired_by_gc(keys_a, keys_b, ops):
    """However the index and the row files diverge, lookups never return
    wrong data, and ``gc --apply`` (rebuild) restores full consistency:
    every stored key indexed, every entry verifying."""
    with tempfile.TemporaryDirectory() as root:
        for name, keys in (("a", keys_a), ("b", keys_b)):
            directory = os.path.join(root, name)
            os.makedirs(directory)
            write_lines(
                os.path.join(directory, "results.jsonl"),
                [encode_line(make_record(k, i)) + "\n"
                 for i, k in enumerate(keys)],
            )
        index = StoreIndex(root)
        index.refresh()
        index_path = index.path
        for op in ops:
            present = os.path.exists(index_path)
            if op == "shift_offsets" and present:
                lines = []
                for _b, _e, rec in iter_jsonl(index_path):
                    if rec and isinstance(rec.get("offset"), int):
                        rec["offset"] += 3
                    if rec:
                        lines.append(json.dumps(rec) + "\n")
                write_lines(index_path, lines)
            elif op == "wrong_campaign" and present:
                lines = []
                for _b, _e, rec in iter_jsonl(index_path):
                    if rec and "key" in rec:
                        rec["campaign"] = "b" if rec["campaign"] == "a" else "a"
                    if rec:
                        lines.append(json.dumps(rec) + "\n")
                write_lines(index_path, lines)
            elif op == "drop_index" and present:
                os.remove(index_path)
            elif op == "bogus_entry":
                with open(index_path, "a") as handle:
                    handle.write('{"campaign": "a", "key": "zzzz", '
                                 '"offset": 999999}\n')
            elif op == "compact_rows":
                # Rewrite campaign a without its first record: every
                # offset into it is now stale.
                path = os.path.join(root, "a", "results.jsonl")
                rows = [r for _b, _e, r in iter_jsonl(path) if r]
                write_lines(
                    path, [encode_line(r) + "\n" for r in rows[1:]]
                )
            elif op == "append_unindexed":
                with open(os.path.join(root, "b", "results.jsonl"),
                          "a") as handle:
                    handle.write(
                        encode_line(make_record("fresh-row", 7)) + "\n"
                    )
            elif op == "truncate_index":
                if os.path.exists(index_path):
                    size = os.path.getsize(index_path)
                    with open(index_path, "rb+") as handle:
                        handle.truncate(size // 2)
            elif op == "mistyped_lines":
                with open(index_path, "a") as handle:
                    for line in mistyped_index_lines(keys_a[0]):
                        handle.write(line)
            if not os.path.exists(index_path):
                continue
            # Diverged index: lookups may miss, but never lie, and a
            # refresh over it never fails.
            diverged = StoreIndex(root)
            for key in diverged.keys():
                record = diverged.lookup(key)
                assert record is None or record["key"] == key
            diverged.refresh(persist=False)
        if os.path.exists(index_path):
            # The dry run reports the divergence exactly: every entry
            # that does not verify, and every main-stream key unindexed.
            plan = gc_root(root)
            index = StoreIndex(root)
            assert plan.index_stale == len(index.stale_keys())
            assert plan.index_missing == sum(
                len({record_key(record) for _b, _e, record in iter_jsonl(
                    os.path.join(root, name, "results.jsonl"))}
                    - {None} - set(index.keys()))
                for name in ("a", "b")
            )
        gc_root(root, apply=True)
        repaired = StoreIndex(root)
        stored = set()
        for name in ("a", "b"):
            stored |= set(ResultStore(os.path.join(root, name)).keys())
        assert set(repaired.keys()) >= stored
        for key in stored:
            assert repaired.lookup(key)["key"] == key
        assert repaired.stale_keys() == []


@given(
    spread=st.lists(
        st.tuples(st.sampled_from(["alpha", "beta"]), pool_keys, values),
        max_size=20,
    ),
)
@SETTINGS
def test_export_jsonl_rows_round_trip_byte_identically(spread):
    with tempfile.TemporaryDirectory() as root:
        per_dir = {}
        for name, key, value in spread:
            per_dir.setdefault(name, []).append(
                encode_line(make_record(key, value)) + "\n"
            )
        for name, lines in per_dir.items():
            directory = os.path.join(root, name)
            os.makedirs(directory)
            write_lines(os.path.join(directory, "results.jsonl"), lines)
        dirs = [os.path.join(root, n) for n in sorted(per_dir)]
        merged = {key: record for _c, key, record in iter_merged_records(dirs)}

        class Sink:
            def __init__(self):
                self.chunks = []

            def write(self, chunk):
                self.chunks.append(chunk)

        sink = Sink()
        count = export_jsonl(dirs, sink)
        exported = "".join(sink.chunks).splitlines()
        assert count == len(merged) == len(exported)
        # Byte-identity: every exported line is exactly a store line.
        store_lines = set()
        for name in per_dir:
            with open(os.path.join(root, name, "results.jsonl")) as handle:
                store_lines.update(line.rstrip("\n") for line in handle)
        assert set(exported) <= store_lines
        # Losslessness: parsing the export reproduces the merged records.
        assert {json.loads(line)["key"]: json.loads(line)
                for line in exported} == merged
