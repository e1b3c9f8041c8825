"""End-to-end and per-layer benchmark of the Centurion simulator.

Four workloads (paper cells, sparse dynamics, a campaign sweep and a
served sweep) are timed from outside the library: the benchmark calls
public functions, reads public counters and changes nothing under
``src/``.  See ``README.md`` in this directory for the workloads, the
metrics and how to run, trace and compare.
"""

import json
import os
import sys

#: Root of the checkout (this package lives in ``benchmarks/e2e``).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Seed base whose outputs are pinned in ``digests.json``.
DEFAULT_SEED = 1000

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def load_benchmark():
    """The parsed ``BENCHMARK.json`` (metric names, units and bounds)."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)
