"""Platform configuration.

One frozen dataclass carries every tunable of the reproduction, grouped by
subsystem.  Defaults are the calibrated Centurion-V6 values: the paper's
explicit parameters (8×16 grid, 4 ms task-1 period, 20 ms FFW timeout,
500 ms fault injection, 1000 ms horizon) plus this reproduction's service
times and NoC timings.  The service-time calibration is documented in
:func:`repro.app.workloads.spec.fork_join_spec`'s docstring; how the
config feeds the platform and the campaign cell keys is in
``docs/architecture.md``.
"""

import dataclasses
import functools
import json

from repro.app.workloads.policies import MAPPING_POLICIES, RECOVERY_REMAPS
from repro.node.dvfs import MAX_FREQUENCY_MHZ, MIN_FREQUENCY_MHZ

#: DVFS governor policies (see :mod:`repro.platform.dynamics`):
#: ``"none"`` leaves frequencies alone, ``"threshold-throttle"`` throttles
#: above ``governor_hot_c`` and restores at or below it, ``"hysteresis"``
#: throttles above ``governor_hot_c`` but restores only at or below
#: ``governor_cool_c`` and never changes faster than ``governor_dwell_us``.
GOVERNORS = ("none", "threshold-throttle", "hysteresis")


@dataclasses.dataclass(frozen=True)
class PlatformConfig:
    """All platform parameters with Centurion-V6 defaults."""

    # -- grid ---------------------------------------------------------------
    width: int = 16
    height: int = 8

    # -- NoC timing ----------------------------------------------------------
    flit_time_us: int = 1
    wire_latency_us: int = 1
    router_latency_us: int = 2
    packet_flits: int = 4
    deadlock_wait_limit_us: int = 50_000
    max_reroutes: int = 32
    recent_queue_depth: int = 8
    #: "xy" (the paper's evaluated heuristic) or "adaptive" (§V extension:
    #: congestion-aware minimal output-port selection).
    routing_mode: str = "xy"
    #: Express hop engine: collapse multi-hop flights into single events
    #: when provably safe (see repro.noc.network).  Bit-identical results
    #: either way; the knob exists for A/B verification and debugging.
    fast_path: bool = True

    # -- processing elements ----------------------------------------------------
    queue_capacity: int = 6
    service_jitter: float = 0.1
    overflow_hold_us: int = 750

    # -- task graph (Figure 3, ratio 1:3:1) ---------------------------------------
    fork_width: int = 3
    generation_period_us: int = 4_000
    source_service_us: int = 500
    branch_service_us: int = 12_500
    sink_service_us: int = 3_000
    packet_deadline_us: int = 16_000
    #: Paper §V extension: emit all fork branches of an instance together
    #: (once per ``fork_width`` periods) and fan them to distinct providers.
    multicast_fork: bool = False

    # -- intelligence ----------------------------------------------------------------
    aim_tick_us: int = 2_000
    ni_threshold: int = 24
    ffw_timeout_us: int = 20_000
    ffw_deadline_margin_us: int = 8_000

    # -- experiment harness -------------------------------------------------------------
    initial_mapping: str = "random"
    metrics_window_us: int = 10_000
    horizon_us: int = 1_000_000
    fault_time_us: int = 500_000

    # -- self-healing dynamics (see repro.platform.dynamics) ----------------
    # These fields are canonical-optional: `canonical()` omits them at
    # their defaults, so every campaign key minted before they existed is
    # conserved byte-for-byte.
    dvfs_governor: str = "none"
    governor_hot_c: float = 70.0
    governor_cool_c: float = 60.0
    governor_throttle_mhz: int = 50
    governor_dwell_us: int = 10_000
    watchdog_recovery: bool = False
    watchdog_timeout_us: int = 100_000
    #: Fault-aware remap on recovery (canonical-optional, like the
    #: dynamics group): ``"fault-aware"`` assigns a recovered blank node
    #: the task with the largest census deficit against its
    #: weight-proportional target (see repro.app.workloads.policies).
    recovery_remap: str = "none"

    def __post_init__(self):
        if self.width < 2 or self.height < 1:
            raise ValueError("grid must be at least 2x1")
        if self.initial_mapping not in MAPPING_POLICIES:
            raise ValueError(
                "unknown initial mapping {!r}; known: {}".format(
                    self.initial_mapping,
                    ", ".join(sorted(MAPPING_POLICIES)),
                )
            )
        if self.recovery_remap not in RECOVERY_REMAPS:
            raise ValueError(
                "unknown recovery remap {!r}; known: {}".format(
                    self.recovery_remap, RECOVERY_REMAPS
                )
            )
        if self.routing_mode not in ("xy", "adaptive"):
            raise ValueError(
                "unknown routing mode {!r}".format(self.routing_mode)
            )
        if self.fault_time_us > self.horizon_us:
            raise ValueError("fault time beyond horizon")
        if self.dvfs_governor not in GOVERNORS:
            raise ValueError(
                "unknown DVFS governor {!r}; known: {}".format(
                    self.dvfs_governor, GOVERNORS
                )
            )
        if not self.governor_cool_c < self.governor_hot_c:
            raise ValueError(
                "governor_cool_c must lie below governor_hot_c"
            )
        if not (
            MIN_FREQUENCY_MHZ
            <= self.governor_throttle_mhz
            <= MAX_FREQUENCY_MHZ
        ):
            raise ValueError(
                "governor_throttle_mhz {} outside [{}, {}]".format(
                    self.governor_throttle_mhz,
                    MIN_FREQUENCY_MHZ,
                    MAX_FREQUENCY_MHZ,
                )
            )
        if self.governor_dwell_us < 0:
            raise ValueError("governor_dwell_us must be >= 0")
        for field in (
            "flit_time_us",
            "generation_period_us",
            "aim_tick_us",
            "ffw_timeout_us",
            "metrics_window_us",
            "horizon_us",
            "watchdog_timeout_us",
        ):
            if getattr(self, field) <= 0:
                raise ValueError("{} must be positive".format(field))

    @property
    def num_nodes(self):
        return self.width * self.height

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    #: Fields added after the v1 config schema (the self-healing dynamics
    #: group).  ``canonical()`` emits them only when they deviate from
    #: their defaults, so a dynamics-free config canonicalises — and
    #: content-hashes — to the byte-identical payload it always had.
    _CANONICAL_OPTIONAL = frozenset((
        "dvfs_governor",
        "governor_hot_c",
        "governor_cool_c",
        "governor_throttle_mhz",
        "governor_dwell_us",
        "watchdog_recovery",
        "watchdog_timeout_us",
        "recovery_remap",
    ))

    def canonical(self):
        """Config dict for content hashing (campaign cell keys).

        Every v1 field appears whether defaulted or not; post-v1 fields
        (see :attr:`_CANONICAL_OPTIONAL`) join only when changed from
        their default, keeping pre-existing campaign keys stable.  The
        dict is built once per instance; each call returns a copy.
        """
        return dict(self._canonical)

    @functools.cached_property
    def _canonical(self):
        data = dataclasses.asdict(self)
        for name in self._CANONICAL_OPTIONAL:
            if data[name] == _FIELD_DEFAULTS[name]:
                del data[name]
        return data

    @functools.cached_property
    def canonical_json(self):
        """:meth:`canonical` as compact sorted-key JSON, the exact bytes
        a campaign cell key hashes for this config.

        Memoised on this instance, never by value: equal configs can
        encode differently (``PlatformConfig(flit_time_us=1.0)`` compares
        and hashes equal to ``PlatformConfig()`` since ``1.0 == 1``, yet
        encodes ``1.0``), so a cache keyed by config would hand one the
        other's key.  The instance is frozen, so the memo never goes
        stale, and :meth:`replace` builds a new instance with none.
        """
        return json.dumps(
            self._canonical, sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def small(cls, **changes):
        """A fast 4×4 configuration for tests and examples."""
        base = dict(
            width=4,
            height=4,
            horizon_us=200_000,
            fault_time_us=100_000,
        )
        base.update(changes)
        if (
            "fault_time_us" not in changes
            and base["fault_time_us"] > base["horizon_us"]
        ):
            base["fault_time_us"] = base["horizon_us"] // 2
        return cls(**base)

    def model_params(self, model_name):
        """Constructor parameters for a named intelligence model."""
        if model_name in ("network_interaction", "ni"):
            return {"threshold": self.ni_threshold}
        if model_name in ("foraging_for_work", "ffw"):
            return {
                "timeout_us": self.ffw_timeout_us,
                "deadline_margin_us": self.ffw_deadline_margin_us,
            }
        return {}


#: Field-name -> declared default, used by ``canonical()`` to decide
#: which canonical-optional fields are at rest.
_FIELD_DEFAULTS = {
    field.name: field.default
    for field in dataclasses.fields(PlatformConfig)
}
