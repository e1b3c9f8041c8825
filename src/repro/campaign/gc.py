"""Campaign store management: ``ls`` surveys, ``gc`` compaction, export.

Everything here operates on plain campaign directories — v1 stores (a
bare ``results.jsonl`` + ``spec.json``) work unchanged; the root index
and worker shard streams are handled when present, never required.

gc semantics
------------
``gc`` is a *plan* by default (dry run): it reports, per campaign, how
many lines a compaction would drop — superseded duplicates (an earlier
record for a key that was written again), torn/garbage/blank lines, and
orphaned rows (keys the directory's ``spec.json`` no longer expands to;
directories without a readable spec get no orphan detection) — plus the
worker streams an ``apply`` would fold in.  ``apply`` rewrites
``results.jsonl`` atomically (temp file + ``os.replace``) with exactly
one canonical line per surviving key in first-seen order, removes the
worker streams, and rebuilds the root ``index.jsonl`` (compaction moves
byte offsets).  A campaign with nothing to drop is left byte-untouched.

Surveys and exports read through the campaign merge
(:mod:`repro.campaign.rows`): ``ls`` and the dry run hold only keys and
offsets, and ``apply`` reads survivors back from their surveyed offsets.
"""

import csv
import dataclasses
import itertools
import os

from repro.campaign.index import INDEX_FILE, StoreIndex, campaign_dirs
from repro.campaign.rows import (
    campaign_name,
    iter_merged_records,
    iter_merged_rows,
    read_winners,
    scan_campaign,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    RESULTS_FILE,
    SPEC_FILE,
    encode_line,
    worker_files,
)

#: Scalar row columns in export order (extras appended alphabetically).
ROW_COLUMNS = (
    "model",
    "seed",
    "faults",
    "scenario",
    "settling_time_ms",
    "settled_performance",
    "recovery_time_ms",
    "recovered_performance",
    "total_switches",
)


@dataclasses.dataclass
class CampaignSummary:
    """One campaign directory's survey (what ``campaign ls`` prints)."""

    name: str
    directory: str
    kind: str = "?"
    #: Grid size of the directory's spec.json (None: no readable spec).
    spec_cells: int = None
    #: Unique keys on disk (main + worker streams, last-write-wins).
    stored: int = 0
    #: Stored keys the spec still expands to.
    current: int = 0
    #: Stored keys the spec no longer expands to (stale keys).
    orphaned: int = 0
    #: Earlier records superseded by a later write of the same key.
    superseded: int = 0
    #: Torn tails, garbage and blank lines.
    torn: int = 0
    #: Worker shard streams not yet folded into ``results.jsonl``.
    worker_files: int = 0

    def completion(self):
        """Percent of the spec grid present, or None without a spec."""
        if not self.spec_cells:
            return None
        return 100.0 * self.current / self.spec_cells

    def droppable(self):
        """Lines a ``gc --apply`` would remove."""
        return self.orphaned + self.superseded + self.torn

    def as_dict(self):
        """JSON-friendly dump (the ``campaign ls --json`` payload)."""
        data = dataclasses.asdict(self)
        data["completion"] = self.completion()
        return data


def load_spec(directory):
    """The directory's ``spec.json`` as a CampaignSpec, or None.

    Tolerant: a missing, unparsable or foreign spec file simply disables
    orphan detection for the directory — it never fails a survey.
    """
    path = os.path.join(directory, SPEC_FILE)
    if not os.path.isfile(path):
        return None
    try:
        return CampaignSpec.from_json_file(path)
    except Exception:
        return None


def _survey(directory):
    """``(summary, scan, orphans)`` for one campaign dir."""
    scan = scan_campaign(directory)
    spec = load_spec(directory)
    spec_cells = None
    kind = "?"
    orphans = set()
    if spec is not None:
        kind = spec.kind
        spec_keys = {descriptor.key() for descriptor in spec.expand()}
        spec_cells = len(spec_keys)
        orphans = set(scan.winners) - spec_keys
    stored = len(scan.winners)
    summary = CampaignSummary(
        name=campaign_name(directory),
        directory=directory,
        kind=kind,
        spec_cells=spec_cells,
        stored=stored,
        current=stored - len(orphans),
        orphaned=len(orphans),
        superseded=scan.valid - stored,
        torn=scan.torn,
        worker_files=scan.worker_files,
    )
    return summary, scan, orphans


def summarize(directory):
    """Survey one campaign directory (the ``campaign ls`` row)."""
    return _survey(directory)[0]


def _compact(directory, summary, scan, orphans):
    """Rewrite one directory per an already-computed survey (gc apply).

    Atomic (temp file + ``os.replace``): one canonical line per
    surviving key in first-seen order; worker streams are removed (their
    records are folded in).  A directory with nothing to drop is left
    byte-untouched.  A survivor that no longer verifies raises with
    ``results.jsonl`` untouched: gc never drops a record.
    """
    if not summary.droppable() and not summary.worker_files:
        return
    path = os.path.join(directory, RESULTS_FILE)
    tmp = "{}.gc.{}".format(path, os.getpid())
    survivors = (key for key in scan.winners if key not in orphans)
    try:
        with open(tmp, "w") as handle:
            for key, record in read_winners(scan.winners, survivors):
                if record is None:
                    raise RuntimeError(
                        "{}: record {} changed since the gc survey; "
                        "left results.jsonl untouched, rerun gc".format(
                            directory, key)
                    )
                handle.write(encode_line(record))
                handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)  # the rewrite failed: results.jsonl untouched
    for worker_path in worker_files(directory):
        os.remove(worker_path)


@dataclasses.dataclass
class RootReport:
    """A whole store root's gc plan (or applied result)."""

    root: str
    summaries: list
    #: Index entries that no longer verify against the row files.
    index_stale: int = 0
    #: Stored keys the index does not cover.
    index_missing: int = 0
    #: True when the root has an ``index.jsonl``.
    has_index: bool = False
    applied: bool = False

    def droppable(self):
        """Total lines a ``gc --apply`` would remove across the root."""
        return sum(summary.droppable() for summary in self.summaries)


def gc_root(root, dirs=None, apply=False):
    """Plan/apply gc for every campaign under ``root``.

    ``dirs`` restricts the pass to explicit campaign directories
    (defaults to every subdirectory holding a ``results.jsonl``).  With
    ``apply`` the root index is rebuilt afterwards — compaction moves
    offsets, and rebuilding is exactly how a diverged index is repaired.
    """
    if dirs is None:
        dirs = [os.path.join(root, name) for name in campaign_dirs(root)]
    has_index = os.path.exists(os.path.join(root, INDEX_FILE))
    surveys = [(directory,) + _survey(directory) for directory in dirs]
    index_stale = index_missing = 0
    if has_index and not apply:
        # An entry naming its key's surveyed main-stream winner is live;
        # any other entry falls back to a per-key seek.
        index = StoreIndex(root)
        surveyed = set()
        for directory, _summary, scan, _orphans in surveys:
            main = os.path.join(directory, RESULTS_FILE)
            name = campaign_name(directory)
            surveyed.update(
                (key, name, offset)
                for key, (path, offset) in scan.winners.items()
                if path == main
            )
        for key, campaign, offset in index.entries():
            live = (key, campaign, offset) in surveyed
            if not live and index.lookup(key) is None:
                index_stale += 1
        indexed = index.keys()
        for _directory, _summary, scan, _orphans in surveys:
            # Only main-stream keys count: worker shard streams are
            # deliberately unindexed until a gc apply folds them in.
            main_keys = itertools.islice(scan.winners, scan.main_keys)
            index_missing += sum(1 for key in main_keys if key not in indexed)
    summaries = []
    for directory, summary, scan, orphans in surveys:
        if apply:
            _compact(directory, summary, scan, orphans)
        summaries.append(summary)
    if apply and (has_index or campaign_dirs(root)):
        StoreIndex(root).rebuild()
    return RootReport(
        root=root,
        summaries=summaries,
        index_stale=index_stale,
        index_missing=index_missing,
        has_index=has_index,
        applied=apply,
    )


def export_jsonl(dirs, stream):
    """Write the merged records of ``dirs`` as canonical JSONL.

    Each line is exactly the line a store would write for that record,
    so exported rows round-trip losslessly.  Streams, holding one record
    at a time.  Returns the row count.
    """
    count = 0
    for _campaign, _key, record in iter_merged_records(dirs):
        stream.write(encode_line(record))
        stream.write("\n")
        count += 1
    return count


def csv_columns(dirs):
    """The CSV column list for the campaigns under ``dirs``, streaming.

    One pass over the merged rows collecting only field *names* (the
    union of every row's keys): :data:`ROW_COLUMNS` order first, extras
    appended alphabetically, ``scenario`` included only when some row
    carries it (legacy roots keep their historic header).  This is the
    header-discovery pass a streaming CSV export runs before writing.
    """
    extra = set()
    for _campaign, _key, row in iter_merged_rows(dirs):
        extra.update(row)
    columns = [c for c in ROW_COLUMNS if c in extra or c != "scenario"]
    columns.extend(sorted(extra - set(ROW_COLUMNS)))
    return columns


def export_csv(dirs, stream):
    """Write the merged scalar rows of ``dirs`` as CSV; returns the count.

    Columns: ``campaign``, ``key``, then :func:`csv_columns`.  Fields a
    row lacks (e.g. ``scenario`` on legacy cells) are blank.  Both
    passes read :func:`~repro.campaign.rows.iter_merged_rows`, so they
    (and ``campaign report``) skip the same records.
    """
    columns = csv_columns(dirs)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["campaign", "key"] + columns)
    count = 0
    for campaign, key, row in iter_merged_rows(dirs):
        writer.writerow(
            [campaign, key] + [row.get(column, "") for column in columns]
        )
        count += 1
    return count
