"""The call counter of ``tools/count_calls.py`` (``make counters``)."""

from repro.experiments.runner import run_single
from repro.platform.config import PlatformConfig


def test_counted_cell_matches_run_single(count_calls):
    config = PlatformConfig.small()
    counts = count_calls.count_cell("ffw", 1000, 2, config)
    plain = run_single("ffw", 1000, faults=2, config=config,
                       keep_series=False)
    assert counts["digest"] == count_calls.result_digest(plain)
    assert counts["hops"] == plain.noc_stats["hops"] > 0
    assert counts["calls"] > counts["dispatched"] > 0
