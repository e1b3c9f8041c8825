"""The campaign merge: one key/offset scan, then streaming verified reads.

Every reader of the merged view goes through this module: the analysis
layer (:mod:`repro.analysis.streaming`, ``campaign report``), ``campaign
export`` and the ``campaign ls``/``gc`` surveys (:mod:`repro.campaign.gc`).
Only *keys and byte offsets* are ever held — never the decoded records —
so a 10⁶-cell root with series attached streams in O(keys) memory.

The merge semantics are the store's
(:class:`~repro.campaign.store.ResultStore`): within one campaign the
streams are read in :func:`~repro.campaign.store.stream_paths` order
(main stream, then worker streams), the last write per key wins, and
keys yield in first-seen order; across campaigns the first campaign
holding a key wins (under the dedup contract every holder's line is
byte-identical anyway).  Torn, garbage and keyless lines are skipped,
costing only themselves.

Winning records are re-read by seeking to their recorded offset, and the
record found there is *verified* to still carry its key
(:func:`~repro.campaign.store.read_record_at`, the same read
:meth:`~repro.campaign.index.StoreIndex.lookup` does) — a file compacted
underneath a running iteration yields a skip, never another cell's data.
"""

import dataclasses
import os

from repro.campaign.store import (
    RESULTS_FILE,
    iter_jsonl,
    read_record_at,
    record_key,
    stream_paths,
)


def campaign_name(directory):
    """The campaign name of a store directory (its base name)."""
    return os.path.basename(os.path.normpath(directory))


@dataclasses.dataclass
class CampaignScan:
    """One key/offset pass over a campaign's streams (no record kept)."""

    #: key -> ``(path, offset)`` of its last write, in first-seen order.
    winners: dict
    #: Keys first seen in the main stream: the first ``winners`` entries.
    main_keys: int = 0
    #: Complete record lines, superseded ones included.
    valid: int = 0
    #: Torn tails, garbage, blank and keyless lines.
    torn: int = 0
    #: Worker shard streams read.
    worker_files: int = 0


def scan_campaign(directory):
    """The :class:`CampaignScan` of one campaign directory's streams."""
    scan = CampaignScan(winners={})
    main = os.path.join(directory, RESULTS_FILE)
    for path in stream_paths(directory):
        watermark = 0
        for begin, end, record in iter_jsonl(path):
            watermark = end
            key = record_key(record)
            if key is None:
                scan.torn += 1
                continue
            scan.valid += 1
            scan.winners[key] = (path, begin)
        if watermark < os.path.getsize(path):
            scan.torn += 1  # torn tail (interrupted append)
        if path == main:
            scan.main_keys = len(scan.winners)
        else:
            scan.worker_files += 1
    return scan


def read_winners(winners, keys):
    """Yield ``(key, record)`` for ``keys``, seek-verified at the
    ``winners`` offsets; ``record`` is None when the line no longer
    verifies or its stream is gone."""
    handles = {}
    try:
        for key in keys:
            path, offset = winners[key]
            handle = handles.get(path)
            if handle is None:
                try:
                    handle = handles[path] = open(path, "rb")
                except OSError:
                    yield key, None  # stream removed underneath
                    continue
            yield key, read_record_at(handle, offset, key)
    finally:
        for handle in handles.values():
            handle.close()


def iter_campaign_records(directory, skip=None):
    """Yield ``(key, record)`` winners of one campaign, streaming.

    Two passes, O(keys) memory: :func:`scan_campaign` records each key's
    winning offset; the verified reads then yield the records in
    first-seen key order — the order gc compaction and ``campaign
    export`` preserve — skipping any that no longer verify.  ``skip`` (a
    set of keys) suppresses keys an earlier campaign already yielded
    without decoding their records.
    """
    winners = scan_campaign(directory).winners
    keys = winners if skip is None else (k for k in winners if k not in skip)
    for key, record in read_winners(winners, keys):
        if record is not None:
            yield key, record


def iter_merged_records(dirs):
    """Yield ``(campaign, key, record)`` across campaign directories.

    Directories are taken in the given order and the first campaign
    holding a key wins, streaming: at no point is more than one decoded
    record (plus the key/offset maps) alive.  This is the iterator
    ``campaign export`` and the streaming analysis layer consume.
    """
    seen = set()
    for directory in dirs:
        name = campaign_name(directory)
        for key, record in iter_campaign_records(directory, skip=seen):
            seen.add(key)
            yield name, key, record


def iter_merged_rows(dirs):
    """Yield ``(campaign, key, row)`` scalar rows across campaigns.

    The ``row`` is each winning record's scalar-row dict (see
    :mod:`repro.analysis.export` for the schema); records without one
    (foreign JSONL, or a ``row`` that is not a dict) are skipped.
    Series are decoded as part of the record's JSON line but never
    retained — the constant-memory aggregation path
    (:mod:`repro.analysis.streaming`) holds only per-group sketches on
    top of this iterator.
    """
    for campaign, key, record in iter_merged_records(dirs):
        row = record.get("row")
        if isinstance(row, dict):
            yield campaign, key, row
