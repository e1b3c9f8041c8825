"""Campaign engine: declarative sweeps with a persistent result store.

The paper's artefacts (Tables I/II, Figure 4) are grids of
model × seed × fault-count simulations.  This package names such grids
*declaratively*, caches every completed cell on disk, and fans the
remaining cells out across worker processes:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` describes a sweep
  (models, seeds, fault counts, config overrides) and expands it into
  :class:`RunDescriptor` cells, each with a stable content-hash key;
* :mod:`repro.campaign.store` — :class:`ResultStore` persists finished
  cells as JSONL keyed by that hash, so re-running a campaign skips
  completed work and an interrupted sweep resumes where it stopped;
* :mod:`repro.campaign.executor` — :func:`run_campaign` shards pending
  cells across a multiprocessing pool (chunked ``imap``, ordered
  collection, per-cell error context, progress reporting);
* :mod:`repro.campaign.index` — :class:`StoreIndex`, the per-root
  cross-campaign dedup index (store v2);
* :mod:`repro.campaign.rows` — the campaign merge every reader shares;
* :mod:`repro.campaign.gc` — store management: ``campaign ls`` surveys,
  ``campaign gc`` compaction, merged CSV/JSONL export;
* :mod:`repro.campaign.paper` — the three canonical paper campaigns and
  the grouping that turns a finished campaign back into table rows or
  Figure 4 panels;
* :mod:`repro.campaign.serve` / :mod:`repro.campaign.client` — the
  multi-tenant sweep daemon (``campaign serve``) and its typed HTTP
  client (``campaign submit/status/wait``).

One root, many tenants
----------------------
The daemon serves a single store root, and that root **is** the dedup
scope: every tenant's campaigns are sibling directories under it, cell
keys hash the full simulation payload, and a key computed once — by any
tenant, via HTTP or via ``campaign --spec``, before or during the
daemon's life — is never executed again for any other.  Live
submissions dedup through the server's in-memory done map (cell keys
route to one hash-sharded worker each, so overlapping tenants race-free
execute each shared cell exactly once); campaigns computed before the
daemon started resolve through the root's persistent
:class:`~repro.campaign.index.StoreIndex`.  Results land as ordinary
store-v2 records in each campaign's ``results.jsonl`` — byte-identical
to the lines ``campaign --spec`` writes — so ``campaign
ls/gc/export/report`` and the streaming analysis work unchanged on a
served root.

Store layout
------------
A campaign directory holds two files:

* ``spec.json`` — provenance: the expanded spec that last wrote here;
* ``results.jsonl`` — one JSON record per completed cell, appended as
  cells finish (the checkpoint stream).  Each record carries the cell
  key, the ``(model, seed, faults)`` cell coordinates, the scalar row,
  the application/NoC statistics and (when requested) the full metrics
  series.  On load, the last record per key wins, so a crashed append
  at worst loses its own line.

Store v2
--------
Sibling campaign directories share a *store root* (their common parent,
e.g. ``campaigns/``), and three v2 layers operate across it — all
derivable from the v1 files above, never required by them:

* **Dedup index** — a root-level ``index.jsonl`` maps every cell key to
  ``(campaign, byte offset)`` of the record holding it, built and
  refreshed incrementally (per-campaign ``scanned`` watermarks; a file
  that shrank is rescanned).  :func:`run_campaign` resolves pending
  cells against it before executing anything, so e.g. table2 reuses
  table1's zero-fault cells with **zero** simulations; the reused record
  is copied into the requesting campaign's own stream byte-identically
  (every writer serialises via ``store.encode_line``).  Lookups seek and
  *verify* — a diverged entry is a miss, never wrong data.  Dedup scope:
  keys hash the full simulation payload, so dedup never crosses
  differing spec payloads.
* **Worker shards** — ``run_campaign(workers=N, worker_id=K)`` keeps
  only the pending cells whose key hashes to shard ``K``
  (:func:`~repro.campaign.executor.shard_of`, a pure function of the
  key) and appends to a private ``results.worker-K.jsonl``, so
  independent processes or machines sharing the directory drain one
  campaign with no write contention and no file locks.  Readers merge
  main + worker streams; :meth:`ResultStore.reconcile` (or ``gc``)
  folds the worker streams back into ``results.jsonl`` verbatim.
* **Management** (:mod:`repro.campaign.gc`) — ``campaign ls`` surveys
  directories (grid completion, orphaned/stale keys, superseded and
  torn lines, unreconciled shards), ``campaign gc`` compacts them
  (dry-run by default; ``--apply`` rewrites atomically, folds shards,
  drops orphans/duplicates/torn lines and rebuilds the root index —
  which is also how any index/row divergence is repaired), and
  ``campaign export`` emits merged CSV/JSONL across campaigns.  All
  three read through :mod:`repro.campaign.rows` and agree with the
  store and the index on what a record is.

Hash-key stability contract
---------------------------
A cell key is the SHA-256 of the canonical JSON (sorted keys, no
whitespace) of ``{schema, model, seed, faults, metric, config}`` where
``model`` is the *resolved* registry name (aliases like ``ffw`` hash
identically to ``foraging_for_work``) and ``config`` is the
:meth:`~repro.platform.config.PlatformConfig.canonical` field dict:
every v1 field always, post-v1 fields (the self-healing dynamics group
— ``dvfs_governor``, ``governor_hot_c``, ``governor_cool_c``,
``governor_throttle_mhz``, ``governor_dwell_us``, ``watchdog_recovery``,
``watchdog_timeout_us``) only when changed from their defaults,
mirroring the ``FaultEvent`` rule below.  Keys are therefore stable
across processes, platforms and campaign orderings — and across
canonical-optional additions: a dynamics-free config hashes exactly as
it did before the dynamics fields existed, while setting any of them
mints a distinct key.  Changing a *v1* field's meaning or adding a
non-optional field still changes every key, which is intended (stale
results are never reused against a config they did not describe).  Bump
``spec.HASH_SCHEMA_VERSION`` to force invalidation by hand.
``keep_series`` is deliberately excluded from the key — it changes what
is recorded, not what is simulated; a cached cell without a series is
treated as a miss when the campaign asks for series.

Scenario cells extend the payload with a ``scenario`` entry: the fully
explicit (every-field) dict of the
:class:`~repro.platform.scenario.FaultScenario`, so *any* change to the
injected faults — timing, counts, patterns, durations, even the
scenario's name — mints a new key and invalidates the stored cell.
Legacy fault-count cells omit the entry entirely, which keeps every key
minted before the scenario axis existed valid: old stores keep hitting.

The fault-taxonomy-v2 event kinds (``link_degrade``, ``corrupt``,
``controller``, hazard-rate storms) and the dynamics kinds
(``thermal_storm``, ``deadlock_pressure``) join the same contract one
level down: their fields (``factor``, ``hazard_per_us``,
``horizon_us``, ``heat_c``, ``wait_limit_us``) enter the scenario's
canonical dict *only when set*
(:attr:`~repro.platform.scenario.FaultEvent._CANONICAL_OPTIONAL`), so
every scenario written before those kinds existed canonicalises — and
hashes — to the byte-identical payload it always had, while any event
that does use a v2 field mints a distinct key.

Workload cells (the ``workloads:`` axis) extend the payload with a
``workload`` entry: the
:meth:`~repro.app.workloads.WorkloadSpec.canonical` form of the
declarative spec driving the cell — schema version, name, every task's
explicit v1 fields (service, weight, deadline, edges with fanout, join
flag, arrival shape) — so any change to the task graph or its arrival
curves mints a new key.  Config-only cells (the fork-join application
built from the config's task-graph fields) omit the entry entirely,
conserving every pre-workload key byte for byte; within the entry the
canonical-optional rule recurses once more (``per_task_series`` on the
spec, ``service_dist``/``service_spread`` per task join only when set),
so specs written before those fields existed keep their keys too.

Each config is encoded once.  The key hashes ``{"config":`` followed by
:attr:`~repro.platform.config.PlatformConfig.canonical_json` (the
canonical dict as compact sorted-key JSON, memoised on the config
instance) and then the rest of the payload, encoded per cell.  Those
bytes equal ``json.dumps`` of the whole payload only while ``config``
is the first payload key in sorted order, so a new payload key must
sort after it.  The memo lives on the instance and is never keyed by
value: ``PlatformConfig(flit_time_us=1.0)`` compares and hashes equal
to ``PlatformConfig()`` (``1.0 == 1``) yet encodes ``1.0`` and mints a
different key, so a cache keyed by config would hand one config the
other's key.
"""

from repro.campaign.client import CampaignClient, CampaignStatus, ServeError
from repro.campaign.executor import CampaignReport, run_campaign, shard_of
from repro.campaign.index import StoreIndex
from repro.campaign.serve import CampaignServer
from repro.campaign.spec import CampaignSpec, RunDescriptor
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignClient",
    "CampaignReport",
    "CampaignServer",
    "CampaignSpec",
    "CampaignStatus",
    "ResultStore",
    "RunDescriptor",
    "ServeError",
    "StoreIndex",
    "run_campaign",
    "shard_of",
]
