"""Persistent campaign result store (append-only JSONL, v2).

One :class:`ResultStore` wraps a campaign directory.  Finished cells are
appended to ``results.jsonl`` as they complete — the checkpoint stream —
and loaded back into memory once on open (last record per key wins, and
only newline-terminated lines count, so a truncated final line from a
crash costs only itself; the next append terminates it first instead of
gluing a record onto it).  Records are keyed by
:meth:`RunDescriptor.key`; see the package docstring for the stability
contract.

Store v2 adds multi-writer sharding: a store opened with ``worker=K``
appends to its own ``results.worker-K.jsonl`` instead of the shared
``results.jsonl``, so independent worker processes — or machines sharing
a filesystem — can drain one campaign without write contention or file
locks.  Every reader merges the main stream plus all worker streams
(main first, then workers in sorted name order; shards are key-disjoint
so the order is immaterial), and ``campaign gc --apply``
(:func:`repro.campaign.gc.gc_root`) folds the worker streams back into
``results.jsonl``, one canonical line per key, and removes them.

The completed-key set is memoised: each stream is scanned exactly once,
on open, and every ``has_result``/``__contains__`` check afterwards is a
dict lookup — resume paths never re-read ``results.jsonl`` per key
(pinned by ``tests/campaign/test_executor.py``).  The per-instance
``scans`` counter records how many stream files were read.

This module owns the record line format; the index, the campaign merge
(:mod:`repro.campaign.rows`) and gc read through it: :func:`encode_line`,
:func:`iter_jsonl`, :func:`record_key`, the seek-and-verify
:func:`read_record_at` and the merge order :func:`stream_paths`; one
private decoder parses every line they read.
"""

import fnmatch
import json
import os

from repro.experiments.runner import RunResult

RESULTS_FILE = "results.jsonl"
SPEC_FILE = "spec.json"

#: Glob matching per-worker append streams (see ``worker_results_file``).
WORKER_RESULTS_PATTERN = "results.worker-*.jsonl"


def worker_results_file(worker):
    """Name of worker ``K``'s private append stream."""
    return "results.worker-{}.jsonl".format(worker)


def worker_files(directory):
    """Sorted paths of the worker streams present in ``directory``."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return [
        os.path.join(directory, name)
        for name in sorted(fnmatch.filter(names, WORKER_RESULTS_PATTERN))
    ]


def stream_paths(directory):
    """The directory's JSONL streams in merge order: the main
    ``results.jsonl`` (when present), then the sorted worker streams."""
    main = os.path.join(directory, RESULTS_FILE)
    paths = [main] if os.path.exists(main) else []
    return paths + worker_files(directory)


def encode_line(record):
    """The canonical, byte-stable JSONL serialisation of one record.

    Every writer (checkpoint append, dedup copy, gc compaction, JSONL
    export) uses this exact form, which is what makes cross-campaign
    reuse *byte*-identical, not merely value-identical.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _decode_line(line):
    """The JSON object a raw (bytes) line holds, or None for anything
    else: garbage, a blank line, a bare list or number."""
    try:
        value = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return value if isinstance(value, dict) else None


def record_key(record):
    """The store key of a decoded line, or None when it is not a record.

    A store record is a dict whose ``key`` is a non-empty ``str``; every
    reader treats any other line as garbage.
    """
    if record is None:
        return None
    key = record.get("key")
    return key if isinstance(key, str) and key else None


def iter_jsonl(path, start=0):
    """Yield ``(line_start, line_end, record)`` per *complete* line.

    Byte-offset based (binary read).  A final line without a newline — a
    torn append still in flight — is never yielded, so its bytes stay
    below the scan watermark and are revisited once the line completes.
    Complete but unparsable lines yield ``record=None``: they advance
    the watermark (gc counts and drops them).
    """
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        offset = start
        for line in handle:
            end = offset + len(line)
            if not line.endswith(b"\n"):
                return  # torn tail
            begin, offset = offset, end
            yield begin, end, _decode_line(line)


def read_record_at(handle, offset, key):
    """The record carrying ``key`` at byte ``offset`` of an open stream.

    Seek-and-verify: a file rewritten since the offset was taken reads
    as None, never as another cell's data.
    """
    handle.seek(offset)
    line = handle.readline()
    if not line.endswith(b"\n"):
        return None
    record = _decode_line(line)
    return record if record_key(record) == key else None


def _ends_torn(path):
    """True when ``path`` ends in a line without its newline.

    Under the one-writer-per-stream contract a torn tail found before
    the first append belongs to a dead writer, so
    :meth:`ResultStore.save_record` terminates it first instead of
    gluing the next record onto it.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except OSError:
        return False  # missing or empty stream


class StoredSeries:
    """Attribute view over a JSON-decoded metrics series.

    Exposes the same read surface the figures use on a live
    :class:`~repro.app.metrics.MetricsSeries`: the column attributes,
    ``census``, ``task_ids``, ``len()`` and ``as_dict()``.
    """

    def __init__(self, data):
        self._data = {
            key: value for key, value in data.items()
            if key not in ("census", "task_executions")
        }
        for key, value in self._data.items():
            setattr(self, key, value)
        self.census = _int_keys(data.get("census", {}))
        self.task_ids = tuple(sorted(self.census))
        # Per-task execution columns (present only on workloads that
        # opted in via ``per_task_series``) are int-keyed like census.
        self.task_executions = _int_keys(data.get("task_executions", {}))

    def __len__(self):
        return len(getattr(self, "time_ms", ()))

    def as_dict(self):
        """Plain-dict export, mirroring ``MetricsSeries.as_dict``."""
        data = dict(self._data)
        if self.task_executions:
            data["task_executions"] = {
                tid: list(v) for tid, v in self.task_executions.items()
            }
        data["census"] = {tid: list(v) for tid, v in self.census.items()}
        return data


def _int_keys(mapping):
    """Undo JSON's str-keying of int-keyed dicts (census, per-task stats)."""
    restored = {}
    for key, value in mapping.items():
        if isinstance(key, str):
            try:
                key = int(key)
            except ValueError:
                pass
        restored[key] = value
    return restored


def encode_result(descriptor, result, key=None):
    """JSON-friendly record for one finished cell."""
    return {
        "key": key if key is not None else descriptor.key(),
        "model": result.model,
        "seed": result.seed,
        "faults": result.faults,
        "row": result.as_row(),
        "app_stats": result.app_stats,
        "noc_stats": result.noc_stats,
        "total_switches": result.total_switches,
        "series": (
            result.series.as_dict() if result.series is not None else None
        ),
    }


def decode_result(record):
    """Rebuild a :class:`RunResult` from a stored record.

    Scalar row fields are restored verbatim (JSON round-trips Python
    ints and floats exactly), so table rows built from cached cells are
    bit-identical to freshly computed ones.
    """
    row = record["row"]
    app_stats = dict(record["app_stats"])
    if "executions_by_task" in app_stats:
        app_stats["executions_by_task"] = _int_keys(
            app_stats["executions_by_task"]
        )
    series = record.get("series")
    return RunResult(
        model=row["model"],
        seed=row["seed"],
        faults=row["faults"],
        settling_time_ms=row["settling_time_ms"],
        settled_performance=row["settled_performance"],
        recovery_time_ms=row["recovery_time_ms"],
        recovered_performance=row["recovered_performance"],
        series=StoredSeries(series) if series is not None else None,
        app_stats=app_stats,
        noc_stats=dict(record["noc_stats"]),
        total_switches=row["total_switches"],
        scenario=row.get("scenario"),
        throttle_events=row.get("throttle_events", 0),
        autonomous_recoveries=row.get("autonomous_recoveries", 0),
        deadlock_drops=row.get("deadlock_drops", 0),
        governor=row.get("governor"),
        workload=row.get("workload"),
    )


def record_satisfies(record, descriptor):
    """True when a stored record is usable for ``descriptor``.

    A record without a series does not satisfy a descriptor that asks
    for one (``keep_series`` is not part of the key).  Shared between
    the store's own cache checks and cross-campaign dedup lookups.
    """
    if record is None:
        return False
    if descriptor.keep_series and record.get("series") is None:
        return False
    return True


class ResultStore:
    """Keyed, append-only store of finished campaign cells.

    ``worker=K`` opens the store in shard mode: reads still merge every
    stream, but appends go to this worker's private
    ``results.worker-K.jsonl`` so concurrent workers never share a write
    handle.
    """

    def __init__(self, directory, worker=None):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, RESULTS_FILE)
        self.worker = worker
        self.write_path = (
            self.path if worker is None
            else os.path.join(directory, worker_results_file(worker))
        )
        self._records = {}
        self._handle = None
        #: Stream files scanned since open (the memoisation invariant:
        #: this never grows after ``__init__``).
        self.scans = 0
        self._load()

    def _load(self):
        for path in stream_paths(self.directory):
            self._scan_file(path)

    def _scan_file(self, path):
        """Fold one JSONL stream's complete lines into the memoised
        record map — the same lines gc, the index and rows read."""
        self.scans += 1
        for _begin, _end, record in iter_jsonl(path):
            key = record_key(record)
            if key is not None:
                self._records[key] = record

    def __len__(self):
        return len(self._records)

    def __contains__(self, key):
        return key in self._records

    def keys(self):
        """Memoised set view of the completed cell keys (no file access:
        the streams were scanned once, at open)."""
        return self._records.keys()

    def get(self, key):
        """The raw stored record for ``key`` (or None)."""
        return self._records.get(key)

    def has_result(self, descriptor, key=None):
        """True when a usable cached result exists for ``descriptor``.

        A record without a series does not satisfy a descriptor that
        asks for one (``keep_series`` is not part of the key).  Pass a
        precomputed ``key`` to skip re-hashing the descriptor.
        """
        record = self._records.get(
            key if key is not None else descriptor.key()
        )
        return record_satisfies(record, descriptor)

    def load_result(self, descriptor, key=None):
        """The cached :class:`RunResult` for ``descriptor``."""
        return decode_result(
            self._records[key if key is not None else descriptor.key()]
        )

    def save_record(self, record):
        """Append one raw record line (canonical form) and flush.

        The path dedup copies and gc rewrites go through: the line
        written is byte-identical to what any other store writes for the
        same record.
        """
        key = record_key(record)
        if key is None:
            raise ValueError("store records need a non-empty str 'key'")
        if self._handle is None:
            torn = _ends_torn(self.write_path)
            self._handle = open(self.write_path, "a")
            if torn:
                self._handle.write("\n")
        self._handle.write(encode_line(record))
        self._handle.write("\n")
        self._handle.flush()
        self._records[key] = record
        return record

    def save_result(self, descriptor, result, key=None):
        """Append one finished cell and flush (the resume checkpoint)."""
        return self.save_record(encode_result(descriptor, result, key=key))

    def write_spec(self, spec):
        """Record provenance: the spec that last wrote to this store.

        Atomic (write-then-replace) because concurrent worker shards all
        record the same provenance at startup.
        """
        path = os.path.join(self.directory, SPEC_FILE)
        tmp = "{}.tmp.{}".format(path, os.getpid())
        with open(tmp, "w") as handle:
            json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def close(self):
        """Close the append handle (records stay loaded)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
