"""repro — reproduction of "Embedded Social Insect-Inspired Intelligence
Networks for System-level Runtime Management" (Rowlings, Tyrrell, Trefzer;
DATE 2020).

A pure-Python model of the Centurion 128-core NoC platform with per-node
social-insect intelligence modules performing decentralised runtime task
allocation and fault recovery.  Quickstart:

>>> from repro import CenturionPlatform, PlatformConfig
>>> platform = CenturionPlatform(
...     PlatformConfig.small(), model_name="ffw", seed=1)
>>> series = platform.run()       # doctest: +SKIP
>>> series.active_nodes[-1]       # doctest: +SKIP

A sweep of seeded runs is a :class:`CampaignSpec` run by
:func:`run_campaign`; ``run_single`` is one run.  See README.md for the
architecture overview and docs/architecture.md for the contracts.  The
paper's qualitative claims are checked at paper scale by
``benchmarks/bench_table1.py``, ``bench_table2.py`` and
``bench_figure4.py``; ``tests/experiments/golden/`` pins the rows.
"""

from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.core.models import MODEL_REGISTRY, create_model
from repro.experiments.runner import run_single
from repro.campaign import CampaignSpec, run_campaign

__version__ = "1.0.0"

__all__ = [
    "CenturionPlatform",
    "PlatformConfig",
    "MODEL_REGISTRY",
    "create_model",
    "run_single",
    "CampaignSpec",
    "run_campaign",
    "__version__",
]
