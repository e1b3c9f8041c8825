"""The call counter of ``tools/count_calls.py`` (``make counters``)."""

import importlib.util
import os

from repro.experiments.runner import run_single
from repro.platform.config import PlatformConfig

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "count_calls.py",
)


def _load_tool():
    spec = importlib.util.spec_from_file_location("count_calls", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counted_cell_matches_run_single():
    tool = _load_tool()
    config = PlatformConfig.small()
    counts = tool.count_cell("ffw", 1000, 2, config)
    plain = run_single("ffw", 1000, faults=2, config=config,
                       keep_series=False)
    assert counts["digest"] == tool.result_digest(plain)
    assert counts["hops"] == plain.noc_stats["hops"] > 0
    assert counts["calls"] > counts["dispatched"] > 0

