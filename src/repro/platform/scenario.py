"""Declarative fault scenarios.

The seed reproduced one fault shape — "N random nodes fail permanently at
one instant" (paper §IV-B).  A :class:`FaultScenario` generalises that into
a JSON-loadable composition of :class:`FaultEvent` injections:

* **permanent node kills** — the paper's shape (``kind="node"``);
* **link failures** — a mesh edge dies and routing detours around it
  (``kind="link"``);
* **transient / intermittent faults** — ``duration_us`` recovers the
  victims after an outage, ``repeats``/``period_us`` make the outage
  strike again and again;
* **timed waves** — ``repeats`` occurrences spaced ``period_us`` apart
  with no ``duration_us``: k fresh victims per wave instead of one burst;
* **spatial patterns** — victims drawn from a row, column, rectangular
  region or Manhattan neighbourhood instead of uniformly from the mesh;
* **degraded links** — ``kind="link_degrade"``: the edge survives but its
  ``flit_time`` stretches by ``factor`` (partial failure instead of an
  outage); recovery restores the original timing;
* **packet corruption** — ``kind="corrupt"``: packets crossing the edge
  are delivered but flagged corrupted, so the application discards them
  and deadline/QoS metrics count them as misses;
* **controller attach-point failures** — ``kind="controller"``: one of
  the Experiment Controller's attach points is severed, so its monitors
  and knobs for the nodes on the far side go dark until recovery;
* **hazard-rate storms** — ``hazard_per_us`` + ``horizon_us`` draw the
  occurrence times from the scenario RNG stream (a Poisson process over
  the storm window) instead of a fixed schedule, composable with every
  kind, pattern and ``duration_us``;
* **thermal storms** — ``kind="thermal_storm"``: an impulse of
  exogenous heat (``heat_c`` °C) lands on the victim nodes' thermal
  models and decays on its own; a configured DVFS governor
  (:mod:`repro.platform.dynamics`) fights back by throttling;
* **deadlock pressure** — ``kind="deadlock_pressure"``: the victim
  routers' deadlock-recovery wait bound tightens to ``wait_limit_us``,
  so packets queue-waiting there are dropped far sooner — the router's
  best-effort recovery misfiring under pressure.

The :class:`~repro.platform.faults.FaultInjector` interprets scenarios at
runtime; campaigns carry them as a first-class axis whose content hash
(:meth:`FaultScenario.key`) joins the cell key, so stores invalidate
exactly when the injected faults change.

Event schema (JSON)
-------------------
Every event is a dict; unknown keys are rejected.  Fields:

``kind``
    ``"node"`` (default), ``"link"``, ``"link_degrade"``, ``"corrupt"``,
    ``"controller"``, ``"thermal_storm"`` or ``"deadlock_pressure"``.
``at_us``
    Injection time of the first occurrence (µs, required).  For a
    hazard-rate storm it is the start of the storm window instead.
``count``
    Victims per occurrence.  Drawn from the pattern's candidate set at
    injection time (faults hit the *running* system).  ``None`` with a
    spatial pattern means "the whole set".
``victims``
    Pinned victim list instead of a draw: node ids, ``[src, dst]``
    pairs for the link kinds, or attach-point indices for
    ``"controller"``.  When ``count`` is also given the two must agree.
``factor``
    ``"link_degrade"`` only: multiplier (> 1) applied to the victim
    edge's ``flit_time`` while the degradation holds.
``heat_c``
    ``"thermal_storm"`` only: °C of exogenous heat injected into each
    victim node (an impulse — it decays on its own, so the kind takes
    no ``duration_us``).
``wait_limit_us``
    ``"deadlock_pressure"`` only: tightened deadlock-recovery wait
    bound (µs) applied to the victim routers while the pressure holds;
    overlapping pressures run at the *tightest* active limit.
``hazard_per_us`` / ``horizon_us``
    Storm mode: occurrence times are drawn from a Poisson process with
    this hazard rate over ``[at_us, horizon_us]`` (from the dedicated
    scenario RNG stream) instead of the fixed ``at_us``/``repeats``
    schedule.  Incompatible with ``repeats``/``period_us``.
``pattern`` / ``row`` / ``column`` / ``region`` / ``center`` / ``radius``
    Victim-selection shape for the node-victim kinds (``node``,
    ``thermal_storm``, ``deadlock_pressure``): ``"uniform"`` (default),
    ``"row"`` (needs ``row``), ``"column"`` (needs ``column``),
    ``"region"`` (needs ``region = [x0, y0, x1, y1]``, inclusive) or
    ``"neighborhood"`` (needs ``center``; ``radius`` defaults to 1).
``duration_us``
    Outage length; victims recover that long after each occurrence.
    ``None`` means permanent.
``repeats`` / ``period_us``
    Total number of occurrences (default 1) and their spacing.
"""

import dataclasses
import hashlib
import json

NODE = "node"
LINK = "link"
LINK_DEGRADE = "link_degrade"
CORRUPT = "corrupt"
CONTROLLER = "controller"
THERMAL_STORM = "thermal_storm"
DEADLOCK_PRESSURE = "deadlock_pressure"
KINDS = (
    NODE, LINK, LINK_DEGRADE, CORRUPT, CONTROLLER,
    THERMAL_STORM, DEADLOCK_PRESSURE,
)

#: Kinds whose victims are mesh edges (``[src, dst]`` endpoint pairs).
EDGE_KINDS = (LINK, LINK_DEGRADE, CORRUPT)

#: Kinds whose victims are node ids, drawn through the spatial-pattern
#: machinery (row/column/region/neighbourhood alongside uniform).
NODE_KINDS = (NODE, THERMAL_STORM, DEADLOCK_PRESSURE)

UNIFORM = "uniform"
PATTERNS = (UNIFORM, "row", "column", "region", "neighborhood")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One injection (possibly repeating) within a scenario."""

    at_us: int
    kind: str = NODE
    count: int = None
    victims: tuple = None
    pattern: str = UNIFORM
    row: int = None
    column: int = None
    region: tuple = None
    center: int = None
    radius: int = 1
    duration_us: int = None
    repeats: int = 1
    period_us: int = None
    factor: float = None
    hazard_per_us: float = None
    horizon_us: int = None
    heat_c: float = None
    wait_limit_us: int = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown fault kind {!r}".format(self.kind))
        if self.at_us < 0:
            raise ValueError("fault time must be >= 0")
        if self.pattern not in PATTERNS:
            raise ValueError(
                "unknown victim pattern {!r}; known: {}".format(
                    self.pattern, PATTERNS
                )
            )
        if self.kind not in NODE_KINDS and self.pattern != UNIFORM:
            raise ValueError(
                "{} events support only uniform draws or pinned "
                "victims".format(self.kind)
            )
        if self.kind == LINK_DEGRADE:
            if self.factor is None:
                raise ValueError("link_degrade events need a 'factor'")
            if not self.factor > 1:
                raise ValueError(
                    "degrade factor must be > 1 (a flit-time multiplier)"
                )
        elif self.factor is not None:
            raise ValueError(
                "'factor' only applies to link_degrade events"
            )
        if self.kind == THERMAL_STORM:
            if self.heat_c is None:
                raise ValueError("thermal_storm events need a 'heat_c'")
            if not self.heat_c > 0:
                raise ValueError(
                    "heat_c must be positive (degrees injected)"
                )
            if self.duration_us is not None:
                raise ValueError(
                    "thermal storms are impulses — injected heat decays "
                    "on its own, so 'duration_us' does not apply"
                )
        elif self.heat_c is not None:
            raise ValueError(
                "'heat_c' only applies to thermal_storm events"
            )
        if self.kind == DEADLOCK_PRESSURE:
            if self.wait_limit_us is None:
                raise ValueError(
                    "deadlock_pressure events need a 'wait_limit_us'"
                )
            if not self.wait_limit_us > 0:
                raise ValueError("wait_limit_us must be positive")
        elif self.wait_limit_us is not None:
            raise ValueError(
                "'wait_limit_us' only applies to deadlock_pressure events"
            )
        if self.victims is not None:
            if self.pattern != UNIFORM:
                raise ValueError(
                    "pinned victims cannot be combined with a spatial "
                    "pattern (the pattern would be silently ignored)"
                )
            victims = tuple(
                tuple(v) if isinstance(v, (list, tuple)) else v
                for v in self.victims
            )
            object.__setattr__(self, "victims", victims)
            if self.count is not None and self.count != len(victims):
                raise ValueError(
                    "count={} disagrees with {} pinned victims".format(
                        self.count, len(victims)
                    )
                )
            if self.kind in EDGE_KINDS and any(
                not (isinstance(v, tuple) and len(v) == 2) for v in victims
            ):
                raise ValueError(
                    "{} victims must be [src, dst] endpoint pairs".format(
                        self.kind
                    )
                )
            if self.kind == CONTROLLER and any(
                not isinstance(v, int) or v < 0 for v in victims
            ):
                raise ValueError(
                    "controller victims must be attach-point indices"
                )
        else:
            if self.count is None and self.pattern == UNIFORM:
                raise ValueError(
                    "uniform events need a count (or pinned victims)"
                )
            if self.count is not None and self.count <= 0:
                # A zero-count event injects nothing but would still set
                # the settling/recovery boundary; omit it instead.
                raise ValueError(
                    "fault count must be positive (drop the event for "
                    "a no-op)"
                )
        needs = {
            "row": self.row,
            "column": self.column,
            "region": self.region,
            "neighborhood": self.center,
        }
        if self.pattern in needs and needs[self.pattern] is None:
            raise ValueError(
                "pattern {!r} needs its {!r} parameter".format(
                    self.pattern,
                    "center" if self.pattern == "neighborhood"
                    else self.pattern,
                )
            )
        if self.region is not None:
            region = tuple(int(c) for c in self.region)
            if len(region) != 4:
                raise ValueError("region must be [x0, y0, x1, y1]")
            object.__setattr__(self, "region", region)
        if self.radius < 0:
            raise ValueError("neighbourhood radius must be >= 0")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.repeats > 1 and (
            self.period_us is None or self.period_us <= 0
        ):
            raise ValueError("repeating events need a positive period_us")
        if self.hazard_per_us is not None:
            if not self.hazard_per_us > 0:
                raise ValueError("hazard_per_us must be positive")
            if self.horizon_us is None:
                raise ValueError(
                    "hazard-rate storms need a 'horizon_us' window end"
                )
            if self.horizon_us <= self.at_us:
                raise ValueError(
                    "storm horizon_us must lie beyond at_us (the window "
                    "start)"
                )
            if self.repeats != 1 or self.period_us is not None:
                raise ValueError(
                    "hazard-rate storms draw their own occurrence times; "
                    "repeats/period_us do not apply"
                )
        elif self.horizon_us is not None:
            raise ValueError("'horizon_us' only applies with hazard_per_us")

    # -- timing ------------------------------------------------------------

    def is_storm(self):
        """True when occurrence times come from a hazard-rate draw."""
        return self.hazard_per_us is not None

    def occurrence_times(self, rng=None):
        """Injection timestamps of every occurrence, in order.

        Fixed-schedule events ignore ``rng``.  Hazard-rate storms *draw*
        their times — exponential inter-arrival gaps (mean
        ``1 / hazard_per_us`` µs, floored at 1 µs and rounded to the
        integer clock) walked from ``at_us`` until ``horizon_us`` — and
        therefore require the scenario RNG stream; the draw consumes one
        variate per occurrence plus the final out-of-window one, so a
        fixed seed yields a fixed storm.
        """
        if self.hazard_per_us is not None:
            if rng is None:
                raise ValueError(
                    "hazard-rate storms need the scenario RNG stream to "
                    "draw occurrence times"
                )
            times = []
            t = self.at_us
            while True:
                t += max(1, int(round(rng.expovariate(self.hazard_per_us))))
                if t > self.horizon_us:
                    return times
                times.append(t)
        if self.repeats == 1:
            return [self.at_us]
        return [
            self.at_us + i * self.period_us for i in range(self.repeats)
        ]

    def nominal_victims(self):
        """Victims per occurrence as declared (None = pattern-sized)."""
        if self.victims is not None:
            return len(self.victims)
        return self.count

    # -- serialisation -----------------------------------------------------

    #: Field-name -> default for every optional field, derived from the
    #: dataclass itself (below the class body) so a field added later is
    #: automatically serialised and content-hashed.
    _DEFAULTS = None

    def to_dict(self):
        """Compact JSON dict: defaulted fields are omitted."""
        data = {"at_us": self.at_us}
        for field, default in self._DEFAULTS.items():
            value = getattr(self, field)
            if value != default:
                if field in ("victims", "region"):
                    value = [
                        list(v) if isinstance(v, tuple) else v
                        for v in value
                    ]
                data[field] = value
        return data

    #: Fields added after the v1 schema.  ``canonical`` emits them only
    #: when set: a v1 scenario's canonical dict (and therefore its
    #: content hash and every store key derived from it) is byte-for-byte
    #: what it was before these fields existed.
    _CANONICAL_OPTIONAL = frozenset(
        ("factor", "hazard_per_us", "horizon_us", "heat_c",
         "wait_limit_us")
    )

    def canonical(self):
        """Fully explicit dict for content hashing.

        Every v1 field appears whether defaulted or not; post-v1 fields
        (see :attr:`_CANONICAL_OPTIONAL`) join only when they deviate
        from their default, keeping pre-existing scenario hashes stable.
        """
        data = {"at_us": self.at_us}
        for field, default in self._DEFAULTS.items():
            value = getattr(self, field)
            if field in self._CANONICAL_OPTIONAL and value == default:
                continue
            if field in ("victims", "region") and value is not None:
                value = [
                    list(v) if isinstance(v, tuple) else v for v in value
                ]
            data[field] = value
        return data

    @classmethod
    def from_dict(cls, data):
        """Build an event from a plain dict; unknown keys are rejected."""
        data = dict(data)
        if "at_us" not in data:
            raise ValueError("fault event needs 'at_us'")
        kwargs = {"at_us": int(data.pop("at_us"))}
        for field in cls._DEFAULTS:
            if field in data:
                kwargs[field] = data.pop(field)
        if data:
            raise ValueError(
                "unknown fault event keys: {}".format(sorted(data))
            )
        return cls(**kwargs)


FaultEvent._DEFAULTS = {
    field.name: field.default
    for field in dataclasses.fields(FaultEvent)
    if field.name != "at_us"
}


@dataclasses.dataclass(frozen=True)
class FaultScenario:
    """A named, ordered composition of fault events."""

    name: str
    events: tuple = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("fault scenario needs a name")
        events = tuple(
            event if isinstance(event, FaultEvent)
            else FaultEvent.from_dict(event)
            for event in self.events
        )
        object.__setattr__(self, "events", events)

    # -- queries -----------------------------------------------------------

    def first_fault_us(self):
        """Time of the earliest injection, or ``None`` with no events.

        For a hazard-rate storm this is the start of the storm *window*
        (``at_us``): the first drawn occurrence lands at or after it.
        """
        if not self.events:
            return None
        return min(event.at_us for event in self.events)

    def occurrence_count(self):
        """Total *declared* occurrences across all events.

        Hazard-rate storms count as one declaration — their actual
        occurrence count is a per-seed draw made at apply time.
        """
        return sum(event.repeats for event in self.events)

    # -- serialisation -----------------------------------------------------

    def to_dict(self):
        """JSON-friendly dict; :meth:`from_dict` round-trips it."""
        return {
            "name": self.name,
            "events": [event.to_dict() for event in self.events],
        }

    def canonical(self):
        """Fully explicit dict used for content hashing."""
        return {
            "name": self.name,
            "events": [event.canonical() for event in self.events],
        }

    def key(self):
        """Stable SHA-256 content hash of the scenario."""
        blob = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data):
        """Build a scenario from a plain dict (e.g. a loaded JSON file)."""
        data = dict(data)
        name = data.pop("name", None)
        if not name:
            raise ValueError("fault scenario needs a 'name'")
        events = data.pop("events", ())
        if data:
            raise ValueError(
                "unknown fault scenario keys: {}".format(sorted(data))
            )
        return cls(name=name, events=tuple(events))

    @classmethod
    def from_json_file(cls, path):
        """Load a scenario from a JSON file."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def burst(cls, count, at_us, name=None, victims=None):
        """The paper's fault shape: ``count`` permanent node kills at one
        instant (§IV-B).

        Victims are drawn uniformly from the nodes alive at ``at_us``,
        unless ``victims`` pins them (the two must agree).
        :meth:`~repro.platform.centurion.CenturionPlatform.inject_faults`
        applies this scenario for every paper cell.  ``count=0`` with
        no victims is an empty scenario, so it sets no
        settling/recovery boundary.
        """
        if count < 0:
            raise ValueError("fault count must be >= 0")
        events = (
            (FaultEvent(at_us=at_us, count=count, victims=victims),)
            if count or victims else ()
        )
        return cls(
            name=name or "burst-{}x@{}".format(count, at_us),
            events=events,
        )

    def __repr__(self):
        return "FaultScenario({!r}, {} events)".format(
            self.name, len(self.events)
        )
