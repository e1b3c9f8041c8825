"""Experiment harness.

The run harness under the paper's evaluation: one seeded run
(``run_single``), the cell runner and ordered sweep iterator that
:func:`repro.campaign.run_campaign` drives (``runner.run_cell``,
``runner.iter_runs``), settling- and recovery-time detection, quartile
statistics, and the Table I/II rows and Figure 4 panels rendered from
finished runs.  The sweeps themselves are campaigns
(:mod:`repro.campaign.paper` builds the paper's); the command-line
interface (``repro.experiments.cli``) sits on top of both packages.
"""

from repro.experiments.runner import (
    RunError,
    RunResult,
    run_single,
)
from repro.experiments.settling import (
    recovery_analysis,
    settling_analysis,
    steady_state_time,
)
from repro.experiments.stats import quartiles, summarize
from repro.experiments.tables import (
    format_table,
    table1,
    table2,
)
from repro.experiments.figures import render_series

__all__ = [
    "RunError",
    "RunResult",
    "run_single",
    "steady_state_time",
    "settling_analysis",
    "recovery_analysis",
    "quartiles",
    "summarize",
    "table1",
    "table2",
    "format_table",
    "render_series",
]
