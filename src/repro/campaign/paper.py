"""The paper's artefacts expressed as campaigns.

Builders for the three canonical sweeps — Table I (zero-fault settling),
Table II (recovery vs fault count) and Figure 4 (time-series panels) —
plus :func:`artifact`, which turns a finished
:class:`~repro.campaign.executor.CampaignReport` back into the rows or
panel data the formatters consume.  The CLI's ``table1``/``table2``/
``figure4``/``campaign`` subcommands are thin shells over this module.
"""

from repro.campaign.spec import CampaignSpec
from repro.experiments.runner import default_seeds
from repro.experiments.tables import table1_from_runs, table2_from_runs
from repro.platform.config import PlatformConfig

#: Paper model set, in table order.
MODELS = ("none", "network_interaction", "foraging_for_work")

#: Paper fault counts for Table II.
TABLE2_FAULTS = (0, 2, 4, 8, 16, 32)

#: The paper's two fault scenarios for Figure 4.
FIGURE4_FAULTS = (5, 42)


def table1_spec(runs=15, seed_base=1000, config=None, models=MODELS):
    """Table I as a campaign: zero-fault settling sweep."""
    return CampaignSpec(
        name="table1",
        models=tuple(models),
        seeds=tuple(default_seeds(runs, base=seed_base)),
        fault_counts=(0,),
        config=config if config is not None else PlatformConfig(),
        kind="table1",
    )


def table2_spec(runs=15, fault_counts=TABLE2_FAULTS, seed_base=1000,
                config=None, models=MODELS):
    """Table II as a campaign: recovery sweep over fault counts.

    Zero faults is always included — it is the normalisation reference
    (the table's highlighted case).
    """
    fault_counts = tuple(fault_counts)
    if 0 not in fault_counts:
        fault_counts = (0,) + fault_counts
    return CampaignSpec(
        name="table2",
        models=tuple(models),
        seeds=tuple(default_seeds(runs, base=seed_base)),
        fault_counts=fault_counts,
        config=config if config is not None else PlatformConfig(),
        kind="table2",
    )


def figure4_spec(seed=42, config=None, faults=FIGURE4_FAULTS,
                 models=MODELS):
    """Figure 4 as a campaign: six full-series runs at one seed."""
    return CampaignSpec(
        name="figure4",
        models=tuple(models),
        seeds=(seed,),
        fault_counts=tuple(faults),
        config=config if config is not None else PlatformConfig(),
        keep_series=True,
        kind="figure4",
    )


#: Builders for the ``campaign --paper NAME`` CLI shortcut.
PAPER_SPECS = {
    "table1": table1_spec,
    "table2": table2_spec,
    "figure4": figure4_spec,
}


def figure4_data(report):
    """``{fault_count: {model: RunResult}}`` from a figure4 campaign."""
    data = {}
    for descriptor, result in report.pairs():
        data.setdefault(descriptor.faults, {})[descriptor.model] = result
    return data


def artifact(report):
    """The report's artefact, per its spec ``kind``.

    table1/table2 → row dicts; figure4 → panel data; grid → the flat
    scalar rows of every cell.  A sharded worker's report is partial by
    design (it holds only that worker's cells plus cache/dedup hits), so
    it is refused here — run a merge pass (no ``worker_id``) against the
    shared store once the fleet drains to assemble the artefact.
    """
    if getattr(report, "pending_elsewhere", 0):
        raise ValueError(
            "cannot assemble an artefact from worker {}'s partial report "
            "({} cells on other shards); rerun without --worker-id after "
            "the fleet drains".format(
                report.worker_id, report.pending_elsewhere
            )
        )
    kind = report.spec.kind
    if kind == "table1":
        return table1_from_runs(report.results)
    if kind == "table2":
        return table2_from_runs(report.results)
    if kind == "figure4":
        return figure4_data(report)
    return [result.as_row() for result in report.results]
