"""Exact outputs of fixed full-platform cells, pinned across versions.

The determinism suites show that a run repeats within one version, and
the goldens pin small-platform cells.  These pins hold paper-scale cells
on the default :class:`~repro.platform.config.PlatformConfig`:

* the six Table II paper cells at seed 1000: the result digest,
  dispatched kernel events and hops that ``make counters``
  (``tools/count_calls.py``) prints beside its call counts;
* the cell of ``examples/telemetry.py`` (``ffw``, seed 99, a 4x4 block
  of nodes failed at 500 ms): its ``network.stats`` and dispatched
  events.  It is the one known cell where a task switch requeues a
  packet already past the reroute budget, so it pins that counting
  rule at scale;
* the every-claim scenario cell (``EVERY_CLAIM_CELL`` in
  ``tools/count_calls.py``: an event of every fault kind, with claims
  that overlap on one node, one edge and one router row): its digest,
  dispatched events and hops, and the fault state it leaves at the
  horizon.  The digest alone misses a wrong arbitration whose effect
  on traffic happens to be invisible; the end state does not.

A refactor of the NoC or the PE must leave every value here unchanged;
a behaviour fix that moves one names it, with before and after, in
CHANGES.md.
"""

import pytest

from repro.experiments.runner import run_single
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig

#: (model, faults) -> (digest, dispatched events, hops) at seed 1000.
PAPER_CELLS = {
    ("none", 0): ("f501a03f12adcf38", 181_724, 98_699),
    ("none", 8): ("58b20808328286c2", 166_716, 90_401),
    ("ni", 0): ("e2c6aa4af1b14b40", 60_297, 29_673),
    ("ni", 8): ("2bf0bad1ef63939f", 58_593, 28_946),
    ("ffw", 0): ("daf6ad73e0d3d4cc", 81_672, 41_742),
    ("ffw", 8): ("0826336bf7d58d30", 78_529, 40_275),
}


@pytest.mark.parametrize(
    "model, faults", list(PAPER_CELLS),
    ids=["{}/{}".format(*cell) for cell in PAPER_CELLS],
)
def test_paper_cell_matches_its_pin(count_calls, model, faults):
    with count_calls.recorded_platforms() as built:
        result = run_single(
            model, 1000, faults=faults, config=PlatformConfig(),
            keep_series=False,
        )
    assert (
        count_calls.result_digest(result),
        built[-1].sim.dispatched_events,
        result.noc_stats["hops"],
    ) == PAPER_CELLS[model, faults]


def test_pins_cover_the_counted_cells(count_calls):
    assert list(count_calls.PAPER_CELLS) == list(PAPER_CELLS)


def test_telemetry_cell_matches_its_pin():
    platform = CenturionPlatform(PlatformConfig(), model_name="ffw", seed=99)
    topology = platform.network.topology
    block = [
        topology.node_id(x, y) for x in range(6, 10) for y in range(2, 6)
    ]
    platform.inject_faults(len(block), victims=block)
    platform.sim.run_until(490_000)  # the example's mid-run snapshot
    platform.run()
    assert platform.network.stats == {
        "sent": 11_485,
        "delivered": 55_330,
        "dropped_deadlock": 0,
        "dropped_no_provider": 239,
        "dropped_fault": 2,
        "reroutes": 43_847,
        "hops": 64_687,
    }
    assert platform.sim.dispatched_events == 125_577


def test_every_claim_cell_matches_its_pin(count_calls):
    model, config, scenario = count_calls.EVERY_CLAIM_CELL
    with count_calls.recorded_platforms() as built:
        result = run_single(
            model, 1000, config=config, scenario=scenario,
            keep_series=False,
        )
    platform = built[-1]
    assert (
        count_calls.result_digest(result),
        platform.sim.dispatched_events,
        result.noc_stats["hops"],
    ) == ("f21cbbcf4bcd6524", 77_769, 40_251)
    # The permanent degrades outlive the transient x8 claim on (40, 41),
    # which runs at the x3 claim again once it lapses; every pressure
    # claim was transient.
    assert platform.network.degraded_links == {
        (3, 19): 2, (40, 41): 3, (43, 59): 2, (45, 46): 2, (108, 109): 2,
    }
    assert platform.network.deadlock_pressure == {}
    assert len(platform.faults.recovered) == 51
