"""Declarative campaign specifications and their content-hash keys.

A :class:`CampaignSpec` names a sweep — models × seeds × fault axis
over one platform configuration — and expands it into
:class:`RunDescriptor` cells.  The fault axis is the union of legacy
``fault_counts`` (uniform permanent bursts at the config's fault time)
and declarative ``scenarios``
(:class:`~repro.platform.scenario.FaultScenario`: link failures,
transients, waves, spatial patterns).  Each descriptor hashes to a
stable key (see the package docstring for the stability contract); the
store and executor never look at anything else.
"""

import dataclasses
import hashlib
import json

from repro.app.workloads import WorkloadSpec, load_workload
from repro.core.models.registry import resolve_model_name
from repro.experiments.runner import DEFAULT_METRIC, default_seeds
from repro.platform.config import GOVERNORS, RETIRED_FIELDS, PlatformConfig
from repro.platform.scenario import FaultScenario

#: Bump to invalidate every stored result by hand (schema field of the
#: key payload); config-schema changes already invalidate implicitly.
HASH_SCHEMA_VERSION = 1

#: Rendering hints understood by :func:`repro.campaign.paper.artifact`.
KINDS = ("grid", "table1", "table2", "figure4")


@dataclasses.dataclass(frozen=True)
class RunDescriptor:
    """One campaign cell: a fully specified ``run_single`` invocation."""

    model: str
    seed: int
    faults: int
    config: PlatformConfig
    metric: str = DEFAULT_METRIC
    keep_series: bool = False
    scenario: FaultScenario = None
    workload: WorkloadSpec = None

    def cell(self):
        """The human-facing cell coordinates.

        ``(model, seed, faults)`` for legacy count cells,
        ``(model, seed, scenario name)`` for scenario cells; cells
        driven by a declarative workload append its name.
        """
        if self.scenario is not None:
            base = (self.model, self.seed, self.scenario.name)
        else:
            base = (self.model, self.seed, self.faults)
        if self.workload is not None:
            return base + (self.workload.name,)
        return base

    def key(self):
        """Stable SHA-256 content hash identifying this simulation.

        The scenario joins the payload only when present, so every key
        minted before the scenario axis existed is unchanged — legacy
        stores keep hitting.  Within the scenario entry the same rule
        recurses: fault-taxonomy-v2 event fields (``factor``,
        ``hazard_per_us``, ``horizon_us``, ``heat_c``,
        ``wait_limit_us``) canonicalise only when set
        (:attr:`~repro.platform.scenario.FaultEvent._CANONICAL_OPTIONAL`),
        so pre-v2 scenario cells keep their PR 3 keys byte-for-byte
        while any event using a v2 kind mints a fresh key.  The config
        entry follows the same contract through
        :meth:`~repro.platform.config.PlatformConfig.canonical`: the
        self-healing dynamics fields join only when changed from their
        defaults, so dynamics-free cells keep their historic keys.  The
        ``workload`` entry extends the contract the same way: it joins
        the payload (as
        :meth:`~repro.app.workloads.WorkloadSpec.canonical`) only when a
        declarative workload drives the cell, so every pre-workload key
        is conserved.

        Because the key covers the *entire* simulation payload, it is
        also the cross-campaign dedup key
        (:class:`~repro.campaign.index.StoreIndex`): two campaigns share
        a key exactly when the cell is the same simulation, so dedup
        never crosses differing spec payloads.
        """
        payload = {
            "schema": HASH_SCHEMA_VERSION,
            "model": resolve_model_name(self.model),
            "seed": self.seed,
            "faults": self.faults,
            "metric": self.metric,
        }
        if self.scenario is not None:
            payload["scenario"] = self.scenario.canonical()
        if self.workload is not None:
            payload["workload"] = self.workload.canonical()
        # The blob is json.dumps of the payload with its "config" entry,
        # sorted and compact.  "config" sorts before every other key, so
        # the config's memoised JSON opens the blob and only this cell's
        # entries are encoded here.
        tail = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        blob = '{"config":' + self.config.canonical_json + "," + tail[1:]
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def job(self):
        """This cell's positional ``run_single`` arguments.

        :func:`~repro.experiments.runner.run_cell` is the one caller in
        the library.
        """
        return (
            self.model,
            self.seed,
            self.faults,
            self.config,
            self.metric,
            self.keep_series,
            self.scenario,
            self.workload,
        )


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep grid, JSON-loadable via :meth:`from_dict`.

    The fault axis of the grid is ``fault_counts`` ∪ ``scenarios``: each
    model × seed pair runs once per fault count (the legacy uniform
    burst) and once per declarative scenario.  Either side may be empty,
    but not both.
    """

    name: str
    models: tuple
    seeds: tuple
    fault_counts: tuple = (0,)
    config: PlatformConfig = PlatformConfig()
    metric: str = DEFAULT_METRIC
    keep_series: bool = False
    #: Declarative fault scenarios swept alongside the fault counts.
    scenarios: tuple = ()
    #: DVFS governor axis: each entry replays the whole fault axis with
    #: ``config.dvfs_governor`` overridden.  Empty = sweep the config's
    #: own governor only (legacy grids, byte-identical expansion).
    governors: tuple = ()
    #: Declarative workload axis: each entry replays the whole fault
    #: axis under that application (a WorkloadSpec, dict, built-in name
    #: or JSON path — anything
    #: :func:`~repro.app.workloads.load_workload` accepts).  Empty =
    #: sweep config-only cells, the fork-join graph built from the
    #: config (byte-identical expansion).
    workloads: tuple = ()
    #: Rendering hint: how :mod:`repro.campaign.paper` turns the finished
    #: grid back into an artefact ("grid" returns plain rows).
    kind: str = "grid"

    def __post_init__(self):
        object.__setattr__(
            self,
            "models",
            tuple(resolve_model_name(m) for m in self.models),
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self, "fault_counts", tuple(int(f) for f in self.fault_counts)
        )
        object.__setattr__(
            self,
            "scenarios",
            tuple(
                s if isinstance(s, FaultScenario)
                else FaultScenario.from_dict(s)
                for s in self.scenarios
            ),
        )
        object.__setattr__(
            self, "governors", tuple(str(g) for g in self.governors)
        )
        object.__setattr__(
            self,
            "workloads",
            tuple(load_workload(w) for w in self.workloads),
        )
        for governor in self.governors:
            if governor not in GOVERNORS:
                raise ValueError(
                    "unknown governor {!r} in campaign axis; known: "
                    "{}".format(governor, GOVERNORS)
                )
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.models or not self.seeds:
            raise ValueError("campaign grid must be non-empty")
        if not self.fault_counts and not self.scenarios:
            raise ValueError(
                "campaign needs fault_counts and/or scenarios"
            )
        for field, values in (
            ("models", self.models),
            ("seeds", self.seeds),
            ("fault_counts", self.fault_counts),
            ("scenarios", [s.name for s in self.scenarios]),
            ("governors", self.governors),
            ("workloads", [w.name for w in self.workloads]),
        ):
            if len(set(values)) != len(values):
                raise ValueError("duplicate entries in {}".format(field))
        if self.kind not in KINDS:
            raise ValueError(
                "unknown campaign kind {!r}; known: {}".format(
                    self.kind, KINDS
                )
            )
        # Validate kind-specific grid requirements up front, before any
        # simulation time is spent on a sweep whose artefact cannot be
        # assembled afterwards.
        if self.kind == "figure4" and not self.keep_series:
            # The panels are the series; a figure4 campaign implies it.
            object.__setattr__(self, "keep_series", True)
        if self.kind in ("table1", "table2"):
            if "none" not in self.models:
                raise ValueError(
                    "{} campaigns need the 'none' model (the "
                    "normalisation baseline)".format(self.kind)
                )
            if 0 not in self.fault_counts:
                raise ValueError(
                    "{} campaigns need fault count 0 (the "
                    "normalisation reference)".format(self.kind)
                )

    def expand(self):
        """The cell grid: model-major, then governors, then workloads,
        then fault counts, then scenarios, then seeds.

        The order is stable and documented because it decides *resume*
        order (which cells a partial store already holds); results are
        per-cell deterministic regardless of execution order.  An empty
        governor (or workload) axis sweeps the spec's own config (or its
        config-only fork-join application) untouched, so legacy grids
        expand byte-identically.
        """
        if self.governors:
            configs = [
                self.config.replace(dvfs_governor=governor)
                for governor in self.governors
            ]
        else:
            configs = [self.config]
        cells = []
        for model in self.models:
            for config in configs:
                for workload in (self.workloads or (None,)):
                    for faults in self.fault_counts:
                        for seed in self.seeds:
                            cells.append(
                                RunDescriptor(
                                    model=model,
                                    seed=seed,
                                    faults=faults,
                                    config=config,
                                    metric=self.metric,
                                    keep_series=self.keep_series,
                                    workload=workload,
                                )
                            )
                    for scenario in self.scenarios:
                        for seed in self.seeds:
                            cells.append(
                                RunDescriptor(
                                    model=model,
                                    seed=seed,
                                    faults=0,
                                    config=config,
                                    metric=self.metric,
                                    keep_series=self.keep_series,
                                    scenario=scenario,
                                    workload=workload,
                                )
                            )
        return cells

    def size(self):
        """Number of cells in the grid."""
        return (
            len(self.models)
            * (len(self.governors) or 1)
            * (len(self.workloads) or 1)
            * len(self.seeds)
            * (len(self.fault_counts) + len(self.scenarios))
        )

    def to_dict(self):
        """JSON-friendly dict; ``from_dict`` round-trips it.

        The ``scenarios``, ``governors`` and ``workloads`` entries are
        omitted when their axis is unused, and the config serialises
        through
        :meth:`~repro.platform.config.PlatformConfig.canonical` (post-v1
        fields only when set) — so legacy campaign directories keep
        byte-identical ``spec.json`` provenance.
        """
        data = {
            "name": self.name,
            "models": list(self.models),
            "seeds": list(self.seeds),
            "fault_counts": list(self.fault_counts),
            "config": self.config.canonical(),
            "metric": self.metric,
            "keep_series": self.keep_series,
            "kind": self.kind,
        }
        if self.scenarios:
            data["scenarios"] = [s.to_dict() for s in self.scenarios]
        if self.governors:
            data["governors"] = list(self.governors)
        if self.workloads:
            data["workloads"] = [w.to_dict() for w in self.workloads]
        return data

    @classmethod
    def from_dict(cls, data):
        """Build a spec from a plain dict (e.g. a loaded JSON file).

        Accepted keys mirror the constructor, plus conveniences:
        ``runs``/``seed_base`` generate the seed list when ``seeds`` is
        absent, ``faults`` is an alias for ``fault_counts``, and
        ``base: "small"`` starts config overrides from
        :meth:`PlatformConfig.small` instead of the full platform.  A
        retired config field (see
        :data:`~repro.platform.config.RETIRED_FIELDS`) is accepted and
        dropped only at the value whose cell keys that conserves; any
        other value raises ``ValueError`` naming the field.
        """
        data = dict(data)
        name = data.pop("name", None)
        if not name:
            raise ValueError("campaign spec needs a 'name'")
        models = data.pop("models", None)
        if not models:
            raise ValueError("campaign spec needs 'models'")
        seeds = data.pop("seeds", None)
        runs = data.pop("runs", None)
        seed_base = data.pop("seed_base", 1000)
        if seeds is None:
            if runs is None:
                raise ValueError("campaign spec needs 'seeds' or 'runs'")
            seeds = default_seeds(int(runs), base=int(seed_base))
        if "fault_counts" in data and "faults" in data:
            raise ValueError(
                "give either 'fault_counts' or its alias 'faults', not both"
            )
        scenarios = data.pop("scenarios", ())
        fault_counts = data.pop("fault_counts", None)
        if fault_counts is None:
            # With scenarios present, absent fault counts mean "scenario
            # axis only" — no implicit zero-fault burst cell.
            fault_counts = data.pop(
                "faults", () if scenarios else (0,)
            )
        overrides = dict(data.pop("config", {}) or {})
        for field, conserved in RETIRED_FIELDS.items():
            if field not in overrides:
                continue
            value = overrides.pop(field)
            # Rows stored under another value were keyed with it: loading
            # that spec re-keyed would orphan them (and gc drop them).
            if type(value) is not type(conserved) or value != conserved:
                raise ValueError(
                    "retired config field {!r} is accepted only as {!r}, "
                    "not {!r}".format(field, conserved, value)
                )
        base = data.pop("base", "default")
        if base == "small":
            config = PlatformConfig.small(**overrides)
        elif base == "default":
            config = PlatformConfig(**overrides)
        else:
            raise ValueError("unknown config base {!r}".format(base))
        spec = cls(
            name=name,
            models=tuple(models),
            seeds=tuple(seeds),
            fault_counts=tuple(fault_counts),
            config=config,
            metric=data.pop("metric", DEFAULT_METRIC),
            keep_series=bool(data.pop("keep_series", False)),
            scenarios=tuple(scenarios),
            governors=tuple(data.pop("governors", ())),
            workloads=tuple(data.pop("workloads", ())),
            kind=data.pop("kind", "grid"),
        )
        if data:
            raise ValueError(
                "unknown campaign spec keys: {}".format(sorted(data))
            )
        return spec

    @classmethod
    def from_json_file(cls, path):
        """Load a spec from a JSON file."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
