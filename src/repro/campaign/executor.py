"""Sharded campaign executor with checkpoint/resume and dedup.

:func:`run_campaign` expands a :class:`~repro.campaign.spec.CampaignSpec`,
splits the grid into cells already present in the store and cells still
pending, resolves pending cells a *sibling* campaign already computed
through the store root's dedup index (``dedup_root`` — the reused record
is copied into this campaign's store byte-identically), optionally keeps
only this worker's deterministic shard of what remains
(``workers``/``worker_id``), streams the remaining descriptors through
:func:`repro.experiments.runner.iter_runs` (chunked ``imap`` over a
multiprocessing pool, ordered collection, a failing cell raised as a
:class:`~repro.experiments.runner.RunError` that names its descriptor),
and checkpoints each finished cell to the store *as it completes* —
killing a sweep and re-running it resumes exactly where it stopped.
The CLI's sweeps and the paper benches all run through
:func:`run_campaign`.
"""

import dataclasses
import time

from repro.campaign.index import StoreIndex
from repro.campaign.store import ResultStore, decode_result, record_satisfies
from repro.experiments.runner import iter_runs


def shard_of(key, workers):
    """Deterministic worker shard for a cell key.

    Pure function of the key's leading 64 bits, so every worker — on any
    machine — partitions one campaign's pending cells identically with
    no coordination.
    """
    return int(key[:16], 16) % workers


@dataclasses.dataclass
class CampaignReport:
    """A finished campaign: cells, results (same order), and counters.

    ``descriptors``/``results`` hold the *resolved* cells — the whole
    grid normally, only this worker's share (plus cache/dedup hits) on a
    sharded run, where ``pending_elsewhere`` counts the cells left to
    the other workers.
    """

    spec: object
    descriptors: list
    results: list
    executed: int
    cached: int
    elapsed_s: float
    store_dir: str = None
    #: Cells resolved from a sibling campaign via the dedup index.
    deduped: int = 0
    #: Pending cells belonging to other workers' shards (0 unsharded).
    pending_elsewhere: int = 0
    workers: int = None
    worker_id: int = None

    def pairs(self):
        """``(descriptor, result)`` tuples in grid order."""
        return list(zip(self.descriptors, self.results))

    def summary(self):
        """One-line human summary (what the CLI prints at the end)."""
        counters = "{} executed, {} cached".format(self.executed, self.cached)
        if self.deduped:
            counters += ", {} deduped".format(self.deduped)
        line = "campaign {}: {} cells ({}) in {:.2f}s".format(
            getattr(self.spec, "name", "?"),
            len(self.descriptors) + self.pending_elsewhere,
            counters,
            self.elapsed_s,
        )
        if self.workers:
            line += " [worker {}/{}: {} cells on other shards]".format(
                self.worker_id, self.workers, self.pending_elsewhere
            )
        return line


def run_campaign(spec, store=None, processes=None, progress=None,
                 use_cache=True, dedup_root=None, workers=None,
                 worker_id=None):
    """Run every cell of ``spec``; return a :class:`CampaignReport`.

    Parameters
    ----------
    store:
        ``None`` (in-memory, no persistence), a directory path, or an
        open :class:`~repro.campaign.store.ResultStore`.  With a store,
        cached cells are skipped and fresh cells are checkpointed as
        they finish.
    processes:
        ``None`` reads ``REPRO_PROCESSES`` (sequential when unset or
        empty); 0/1 sequential; larger values shard pending cells across
        a pool.  (CLI callers default this to
        :func:`~repro.experiments.runner.default_processes`.)
    progress:
        Optional callable ``progress(done, total, cached)`` invoked
        after every cell (cached and deduped cells are reported up
        front).
    use_cache:
        ``False`` recomputes every cell even when the store already
        holds it (the fresh result overwrites the record); it also
        disables dedup lookups.
    dedup_root:
        Store root for cross-campaign dedup.  Pending cells whose key a
        sibling campaign under the root already holds are resolved from
        its :class:`~repro.campaign.index.StoreIndex` — zero simulations
        — and the reused record is copied into this campaign's store
        byte-identically.
    workers / worker_id:
        Distributed shard mode: with ``workers=N`` and ``worker_id=K``
        (0-based) only pending cells whose :func:`shard_of` equals ``K``
        execute here, and a path-opened store appends to this worker's
        private stream.  Independent processes or machines sharing the
        store directory drain one campaign concurrently; ``campaign gc
        --apply`` (or any later merged read) reassembles the full grid.
    """
    started = time.perf_counter()
    sharded = bool(workers) and workers > 1
    if sharded:
        if worker_id is None or not 0 <= worker_id < workers:
            raise ValueError(
                "worker_id must be in [0, {}) when workers={}".format(
                    workers, workers
                )
            )
    elif worker_id not in (None, 0):
        raise ValueError("worker_id needs workers > 1")
    descriptors = spec.expand()
    total = len(descriptors)
    owns_store = isinstance(store, str)
    if owns_store:
        store = ResultStore(store, worker=worker_id if sharded else None)
    try:
        if store is not None:
            store.write_spec(spec)
        # Hash each cell once: the key covers the full config dict, so
        # recomputing it per lookup would dominate the cached fast path.
        keys = [descriptor.key() for descriptor in descriptors]
        results_by_key = {}
        pending = []
        if store is not None and use_cache:
            # Membership checks hit the store's memoised key map — the
            # stream files were scanned once, at open, never per key.
            for descriptor, key in zip(descriptors, keys):
                if store.has_result(descriptor, key=key):
                    results_by_key[key] = store.load_result(
                        descriptor, key=key
                    )
                else:
                    pending.append((descriptor, key))
        else:
            pending = list(zip(descriptors, keys))
        cached = total - len(pending)
        pending_elsewhere = 0
        if sharded:
            mine = [
                (descriptor, key) for descriptor, key in pending
                if shard_of(key, workers) == worker_id
            ]
            pending_elsewhere = len(pending) - len(mine)
            pending = mine
        deduped = 0
        if pending and dedup_root is not None and use_cache:
            index = StoreIndex(dedup_root)
            # In a fleet, only worker 0 persists the refreshed entries —
            # N workers appending the same backlog would bloat the index.
            index.refresh(persist=not sharded or worker_id == 0)
            still_pending = []
            for descriptor, key in pending:
                record = index.lookup(key)
                if record_satisfies(record, descriptor):
                    if store is not None:
                        store.save_record(record)
                    results_by_key[key] = decode_result(record)
                    deduped += 1
                else:
                    still_pending.append((descriptor, key))
            pending = still_pending
        done = cached + deduped
        if progress is not None and done:
            progress(done, total, cached)
        for (descriptor, key), result in zip(
            pending,
            iter_runs([d for d, _k in pending], processes=processes),
        ):
            if store is not None:
                store.save_result(descriptor, result, key=key)
            results_by_key[key] = result
            done += 1
            if progress is not None:
                progress(done, total, cached)
        resolved = [
            (descriptor, results_by_key[key])
            for descriptor, key in zip(descriptors, keys)
            if key in results_by_key
        ]
    finally:
        if owns_store:
            store.close()
    return CampaignReport(
        spec=spec,
        descriptors=[descriptor for descriptor, _result in resolved],
        results=[result for _descriptor, result in resolved],
        executed=len(pending),
        cached=cached,
        elapsed_s=time.perf_counter() - started,
        store_dir=store.directory if store is not None else None,
        deduped=deduped,
        pending_elsewhere=pending_elsewhere,
        workers=workers if sharded else None,
        worker_id=worker_id if sharded else None,
    )
