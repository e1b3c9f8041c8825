"""Time-varying arrival shapes for declarative workloads.

An :class:`ArrivalSpec` marks a task as a *source* and describes when
its generation ticks actually emit packets. The PE's periodic process
keeps firing at the base ``period_us`` regardless of shape; the shape
decides, per tick, whether the tick emits (`emits`). Returning no
packets on a gated tick leaves the PE's generation sequence untouched,
so instance numbering stays dense and the constant shape is the
paper's fixed-rate source.

Three shapes:

``constant``
    Every tick emits. Zero RNG draws — the paper's fixed-rate schedule
    (every config-only cell runs it).
``burst``
    Deterministic on/off trains: ``burst_ticks`` emitting ticks followed
    by ``idle_ticks`` silent ones, phase-locked to each source node's
    own tick counter. Zero RNG draws.
``diurnal``
    A sinusoidal load curve (the "millions of users" day/night shape):
    the emission probability at time ``t`` is

        rate(t) = floor + (1 - floor) * 0.5 * (1 + sin(2*pi*t/cycle_us))

    which peaks at 1.0 once per ``cycle_us`` and bottoms out at
    ``floor``. Each tick draws one uniform variate from the dedicated
    ``workload-arrival`` stream and emits iff it lands under the curve.

``rate_at`` is always within ``[0, 1]`` (pinned by a hypothesis
property) and ``mean_rate`` feeds the capacity lint and the load-aware
mapping policy.
"""

import dataclasses
import math

# Named RNG streams (see repro.sim.rng) — creation-order-insensitive, so
# shapes that never draw leave every other stream byte-identical.
ARRIVAL_STREAM = "workload-arrival"
SERVICE_STREAM = "workload-service"

ARRIVAL_CONSTANT = "constant"
ARRIVAL_BURST = "burst"
ARRIVAL_DIURNAL = "diurnal"
ARRIVAL_SHAPES = (ARRIVAL_CONSTANT, ARRIVAL_BURST, ARRIVAL_DIURNAL)


@dataclasses.dataclass(frozen=True)
class ArrivalSpec:
    """Arrival schedule of a source task.

    ``period_us`` is the base generation period; the shape modulates
    which of those base ticks emit. Shape-specific fields must be left
    ``None`` for shapes that do not use them.
    """

    period_us: int
    shape: str = ARRIVAL_CONSTANT
    burst_ticks: int = None
    idle_ticks: int = None
    cycle_us: int = None
    floor: float = None

    def __post_init__(self):
        if not isinstance(self.period_us, int) or self.period_us < 1:
            raise ValueError(
                f"arrival period_us must be a positive integer, "
                f"got {self.period_us!r}"
            )
        if self.shape not in ARRIVAL_SHAPES:
            raise ValueError(
                f"unknown arrival shape {self.shape!r} "
                f"(known: {', '.join(ARRIVAL_SHAPES)})"
            )
        burst_fields = {
            "burst_ticks": self.burst_ticks, "idle_ticks": self.idle_ticks,
        }
        diurnal_fields = {"cycle_us": self.cycle_us, "floor": self.floor}
        if self.shape == ARRIVAL_BURST:
            for label, value in burst_fields.items():
                if not isinstance(value, int) or value < 1:
                    raise ValueError(
                        f"burst arrivals need {label} >= 1, got {value!r}"
                    )
            extra = {k for k, v in diurnal_fields.items() if v is not None}
        elif self.shape == ARRIVAL_DIURNAL:
            if not isinstance(self.cycle_us, int) or self.cycle_us < 2:
                raise ValueError(
                    f"diurnal arrivals need cycle_us >= 2, "
                    f"got {self.cycle_us!r}"
                )
            if self.floor is not None:
                if not isinstance(self.floor, (int, float)) or isinstance(
                    self.floor, bool
                ) or not 0.0 <= self.floor < 1.0:
                    raise ValueError(
                        f"diurnal floor must lie in [0, 1), "
                        f"got {self.floor!r}"
                    )
            extra = {k for k, v in burst_fields.items() if v is not None}
        else:
            extra = {
                k for k, v in {**burst_fields, **diurnal_fields}.items()
                if v is not None
            }
        if extra:
            raise ValueError(
                f"arrival shape {self.shape!r} does not take "
                f"{', '.join(sorted(extra))}"
            )

    # -- runtime -----------------------------------------------------------

    def needs_rng(self):
        """True when :meth:`emits` consumes a random draw (diurnal)."""
        return self.shape == ARRIVAL_DIURNAL

    def emits(self, tick, now_us, rng=None):
        """Does base tick number ``tick`` (fired at ``now_us``) emit?

        Only the diurnal shape consumes ``rng`` (exactly one uniform
        draw per tick); the other shapes are draw-free.
        """
        if self.shape == ARRIVAL_CONSTANT:
            return True
        if self.shape == ARRIVAL_BURST:
            return tick % (self.burst_ticks + self.idle_ticks) \
                < self.burst_ticks
        return rng.random() < self.rate_at(now_us)

    # -- analysis ----------------------------------------------------------

    def rate_at(self, t_us):
        """Expected emission probability for a base tick at time ``t_us``.

        Always within ``[0, 1]``. For the burst shape this is the
        deterministic 0/1 gate evaluated at the tick the time falls in.
        """
        if self.shape == ARRIVAL_CONSTANT:
            return 1.0
        if self.shape == ARRIVAL_BURST:
            tick = (t_us // self.period_us) % (
                self.burst_ticks + self.idle_ticks
            )
            return 1.0 if tick < self.burst_ticks else 0.0
        floor = self.floor or 0.0
        swing = 0.5 * (1.0 + math.sin(2.0 * math.pi * t_us / self.cycle_us))
        rate = floor + (1.0 - floor) * swing
        return min(1.0, max(0.0, rate))

    def mean_rate(self):
        """Long-run fraction of base ticks that emit."""
        if self.shape == ARRIVAL_CONSTANT:
            return 1.0
        if self.shape == ARRIVAL_BURST:
            return self.burst_ticks / (self.burst_ticks + self.idle_ticks)
        floor = self.floor or 0.0
        return floor + (1.0 - floor) * 0.5

    # -- serialisation -----------------------------------------------------

    def to_dict(self):
        """Compact dict — shape-specific fields only when set."""
        data = {"period_us": self.period_us}
        if self.shape != ARRIVAL_CONSTANT:
            data["shape"] = self.shape
        for label in ("burst_ticks", "idle_ticks", "cycle_us", "floor"):
            value = getattr(self, label)
            if value is not None:
                data[label] = value
        return data

    def canonical(self):
        """Hash form: identical to ``to_dict`` (every field that is set
        participates; ``shape`` is implied ``constant`` when absent)."""
        return self.to_dict()

    @classmethod
    def from_dict(cls, data):
        if isinstance(data, int):
            return cls(period_us=data)
        if not isinstance(data, dict):
            raise ValueError(
                f"arrival must be a period integer or a dict, got {data!r}"
            )
        data = dict(data)
        kwargs = {"period_us": data.pop("period_us", None)}
        if kwargs["period_us"] is None:
            raise ValueError("arrival dict needs a period_us")
        for label in ("shape", "burst_ticks", "idle_ticks", "cycle_us",
                      "floor"):
            if label in data:
                kwargs[label] = data.pop(label)
        if data:
            raise ValueError(
                f"unknown arrival field(s): {', '.join(sorted(data))}"
            )
        return cls(**kwargs)
