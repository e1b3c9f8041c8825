"""Cross-campaign dedup index over a campaign store root (store v2).

A *store root* is a directory whose subdirectories are campaign stores
(each holding a ``results.jsonl``).  The root-level ``index.jsonl`` maps
every cell content key to the campaign file holding its record::

    {"campaign": "table1", "key": "<sha256>", "offset": 12345}
    {"campaign": "table1", "scanned": 67890}

Lines are appended incrementally: an entry line locates one record by
byte offset; a ``scanned`` progress line records how far into that
campaign's ``results.jsonl`` the index has read, so a refresh scans only
the tail appended since.  A campaign file that *shrank* (gc compaction)
is rescanned from the start.

The index is **derivable, never required**: a pre-v2 campaign directory
joins the dedup pool on the next :meth:`StoreIndex.refresh`, and a stale
or corrupt index is always repairable — ``campaign gc --apply`` rebuilds
it from the row files (pinned by the store torture tests).  A mistyped
index line costs only itself.  Lookups verify the record they seek to:
an entry whose offset no longer holds its key reads as a miss, never as
wrong data.

Dedup scope: the lookup key is the full simulation content hash
(:meth:`~repro.campaign.spec.RunDescriptor.key` — schema, model, seed,
fault axis, metric, config), so dedup never crosses differing spec
payloads: two campaigns share a key exactly when the cell is the same
simulation.  Worker shard streams are deliberately not indexed — they
are transient; ``campaign gc --apply`` folds them into
``results.jsonl``, where the next refresh picks them up.
"""

import os

from repro.campaign.store import (
    RESULTS_FILE,
    encode_line,
    iter_jsonl,
    read_record_at,
    record_key,
    worker_files,
)

INDEX_FILE = "index.jsonl"


def campaign_dirs(root):
    """Sorted names of the campaign directories under ``root``.

    A campaign directory is any subdirectory holding a ``results.jsonl``
    (v1 directories qualify unchanged) or — for a campaign only worker
    shards have written to so far — any ``results.worker-*.jsonl``.
    """
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    return [
        name for name in names
        if os.path.isfile(os.path.join(root, name, RESULTS_FILE))
        or worker_files(os.path.join(root, name))
    ]


def _is_offset(value):
    """True for a well-typed byte offset: a non-negative ``int``."""
    return type(value) is int and value >= 0


class StoreIndex:
    """Incremental content-key → ``(campaign, offset)`` index of a root."""

    def __init__(self, root):
        self.root = root
        self.path = os.path.join(root, INDEX_FILE)
        self._entries = {}   # key -> (campaign, offset)
        self._scanned = {}   # campaign -> bytes covered by the index
        self._load()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def keys(self):
        """The indexed cell keys."""
        return self._entries.keys()

    def entries(self):
        """``(key, campaign, offset)`` triples of every index entry."""
        return [
            (key, campaign, offset)
            for key, (campaign, offset) in self._entries.items()
        ]

    def _load(self):
        if not os.path.exists(self.path):
            return
        for _begin, _end, line in iter_jsonl(self.path):
            # Torn, garbage and mistyped index lines cost only themselves.
            if line is None or not isinstance(line.get("campaign"), str):
                continue
            if "key" in line:
                key, offset = record_key(line), line.get("offset")
                if key is not None and _is_offset(offset):
                    self._entries[key] = (line["campaign"], offset)
            elif _is_offset(line.get("scanned")):
                self._scanned[line["campaign"]] = line["scanned"]

    def refresh(self, persist=True):
        """Index every row appended under the root since the last pass.

        Returns the number of new entries.  Appends to ``index.jsonl``
        only when something new was scanned, so a refresh over an
        unchanged root writes nothing.  ``persist=False`` keeps the new
        entries in memory only — what a sharded worker fleet uses so N
        concurrent refreshes don't append the same backlog N times (one
        designated writer persists; everyone else just reads).
        """
        added = []
        for name in campaign_dirs(self.root):
            path = os.path.join(self.root, name, RESULTS_FILE)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            start = self._scanned.get(name, 0)
            if size < start:
                start = 0  # file shrank: compacted/rewritten — rescan
            if size == start:
                continue
            watermark = start
            for begin, end, record in iter_jsonl(path, start=start):
                watermark = end
                key = record_key(record)
                if key is None:
                    continue
                self._entries[key] = (name, begin)
                added.append(
                    {"campaign": name, "key": key, "offset": begin}
                )
            if watermark != self._scanned.get(name):
                self._scanned[name] = watermark
                added.append({"campaign": name, "scanned": watermark})
        if added and persist:
            with open(self.path, "a") as handle:
                for entry in added:
                    handle.write(encode_line(entry))
                    handle.write("\n")
        return sum(1 for entry in added if "key" in entry)

    def lookup(self, key):
        """The stored record for ``key``, or None.

        Seeks straight to the indexed offset (no file scan) and verifies
        the record found there actually carries ``key`` — a compacted or
        diverged file reads as a miss, never as another cell's data.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        campaign, offset = entry
        path = os.path.join(self.root, campaign, RESULTS_FILE)
        try:
            with open(path, "rb") as handle:
                return read_record_at(handle, offset, key)
        except (OSError, ValueError):
            return None  # row file gone, or an unseekable offset

    def stale_keys(self):
        """Keys whose entries no longer verify (diverged index)."""
        return [key for key in self._entries if self.lookup(key) is None]

    def rebuild(self):
        """Drop the index file and re-derive it from the row files."""
        self._entries.clear()
        self._scanned.clear()
        if os.path.exists(self.path):
            os.remove(self.path)
        return self.refresh()
