"""Constant-memory streaming aggregation over campaign roots.

The paper's claims live in aggregate tables (mean settling/recovery per
model × fault condition), but :mod:`repro.analysis.export` and the table
builders operate on in-memory result lists — unusable against a
sweep-scale store root (~10⁶ cells, series attached).  This module
aggregates *rows as they stream* off
:func:`repro.campaign.rows.iter_merged_rows`: memory is O(groups), never
O(rows) — no list of rows exists anywhere in the aggregation path.

Each row lands in one group keyed by **model × scenario-family ×
workload** (:func:`group_key`): the scenario-family is the scenario name
for scenario-driven rows and ``faults=N`` for legacy uniform bursts, the
workload is the declarative spec name or ``-`` for a config-only
fork-join cell.  Per group, every metric column keeps a
:class:`StreamStats` — count, Welford mean/variance, exact min/max and a
bounded :class:`StreamingHistogram` quantile sketch (Ben-Haim/Yom-Tov
style centroid merging: exact below ``max_bins`` samples, bounded-error
interpolation beyond) — and the closed-loop dynamics counters
(``throttle_events``, ``autonomous_recoveries``, ``deadlock_drops``) are
summed, surfacing in summaries only when non-zero, mirroring the row
contract.

The result, a :class:`RootAggregate`, is what ``campaign report``
renders (:mod:`repro.analysis.report`) and what cross-campaign
:func:`~repro.analysis.report.compare` diffs.
"""

import bisect
import os

from repro.campaign.index import campaign_dirs
from repro.campaign.rows import iter_merged_rows

#: Scalar row columns aggregated per group (makespan/latency-style
#: summaries: the settling/recovery clocks, the throughput levels and
#: the reconfiguration volume).
METRIC_COLUMNS = (
    "settling_time_ms",
    "settled_performance",
    "recovery_time_ms",
    "recovered_performance",
    "total_switches",
)

#: Only-when-nonzero dynamics counters (summed, never sketched).
DYNAMICS_COLUMNS = (
    "throttle_events",
    "autonomous_recoveries",
    "deadlock_drops",
)

#: Quantiles reported by every summary.
QUANTILES = (0.5, 0.95, 0.99)


class StreamingHistogram:
    """Bounded quantile sketch (centroid-merging streaming histogram).

    Maintains at most ``max_bins`` ``(value, count)`` centroids sorted
    by value; adding a sample inserts a unit centroid and, past the
    bound, merges the closest adjacent pair (count-weighted mean).
    Below ``max_bins`` distinct values the sketch is *exact*: every
    sample is its own centroid and :meth:`quantile` interpolates order
    statistics directly.  Beyond, error is bounded by the largest merged
    gap — the Ben-Haim/Yom-Tov construction.  Deterministic for a given
    insertion order, so repeated aggregation of the same root yields
    bit-identical summaries.
    """

    def __init__(self, max_bins=64):
        if max_bins < 2:
            raise ValueError("a quantile sketch needs at least 2 bins")
        self.max_bins = max_bins
        self.count = 0
        self._values = []
        self._counts = []

    def add(self, value):
        """Fold one sample into the sketch."""
        value = float(value)
        self.count += 1
        index = bisect.bisect_left(self._values, value)
        if index < len(self._values) and self._values[index] == value:
            self._counts[index] += 1
            return
        self._values.insert(index, value)
        self._counts.insert(index, 1)
        if len(self._values) > self.max_bins:
            self._merge_closest()

    def _merge_closest(self):
        """Merge the closest adjacent centroid pair (weighted mean)."""
        gaps = self._values
        best = min(
            range(len(gaps) - 1), key=lambda i: gaps[i + 1] - gaps[i]
        )
        ca, cb = self._counts[best], self._counts[best + 1]
        merged = ca + cb
        self._values[best] = (
            self._values[best] * ca + self._values[best + 1] * cb
        ) / merged
        self._counts[best] = merged
        del self._values[best + 1]
        del self._counts[best + 1]

    def quantile(self, fraction):
        """Approximate quantile via midpoint-rank interpolation.

        Each centroid's mass is centred on its cumulative midpoint;
        target ranks between midpoints interpolate linearly, and ranks
        outside the first/last midpoint clamp to the extreme centroids
        — so the estimate always lies within the observed value range.
        Returns ``None`` on an empty sketch.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.count == 0:
            return None
        target = fraction * self.count
        cumulative = 0.0
        previous_mid = None
        previous_value = None
        for value, count in zip(self._values, self._counts):
            mid = cumulative + count / 2.0
            if target <= mid:
                if previous_mid is None:
                    return value
                span = mid - previous_mid
                weight = (target - previous_mid) / span if span else 0.0
                return previous_value + weight * (value - previous_value)
            cumulative += count
            previous_mid = mid
            previous_value = value
        return self._values[-1]

    def __len__(self):
        return len(self._values)


class StreamStats:
    """Streaming summary of one metric column (O(1) memory).

    Count, Welford mean/variance, exact min/max, and a
    :class:`StreamingHistogram` for the :data:`QUANTILES`.
    """

    def __init__(self, max_bins=64):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = None
        self.maximum = None
        self.sketch = StreamingHistogram(max_bins=max_bins)

    def add(self, value):
        """Fold one sample in."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.sketch.add(value)

    @property
    def variance(self):
        """Sample variance (0 below two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def quantile(self, fraction):
        """Sketched quantile (``None`` when empty)."""
        return self.sketch.quantile(fraction)

    def summary(self):
        """JSON-friendly dict (count/mean/min/max + quantiles)."""
        data = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }
        for fraction in QUANTILES:
            data["p{:g}".format(fraction * 100)] = self.quantile(fraction)
        return data


def group_key(row):
    """The ``(model, family, workload)`` group of one scalar row.

    The *family* collapses the fault axis the way the paper's tables
    do: scenario-driven rows group under their scenario name, legacy
    uniform bursts under ``faults=N``.  The workload is the declarative
    spec name, ``-`` for a config-only fork-join cell.
    """
    scenario = row.get("scenario")
    family = (
        scenario if scenario is not None
        else "faults={}".format(row.get("faults", 0))
    )
    return (str(row.get("model", "?")), family, row.get("workload") or "-")


class GroupStats:
    """One group's streaming state: metric stats + dynamics sums."""

    def __init__(self, max_bins=64):
        self.rows = 0
        self.metrics = {
            column: StreamStats(max_bins=max_bins)
            for column in METRIC_COLUMNS
        }
        self.dynamics = dict.fromkeys(DYNAMICS_COLUMNS, 0)
        self.campaigns = set()

    def add_row(self, row, campaign=None):
        """Fold one scalar row into the group."""
        self.rows += 1
        if campaign is not None:
            self.campaigns.add(campaign)
        for column, stats in self.metrics.items():
            value = row.get(column)
            if value is not None:
                stats.add(value)
        for column in DYNAMICS_COLUMNS:
            self.dynamics[column] += int(row.get(column, 0) or 0)

    def summary(self):
        """JSON-friendly dict; dynamics counters only when non-zero."""
        data = {
            "rows": self.rows,
            "campaigns": sorted(self.campaigns),
            "metrics": {
                column: stats.summary()
                for column, stats in self.metrics.items()
            },
        }
        dynamics = {
            column: total
            for column, total in self.dynamics.items() if total
        }
        if dynamics:
            data["dynamics"] = dynamics
        return data


class RootAggregate:
    """Streaming aggregate of a campaign root (O(groups) memory).

    Built row-by-row via :meth:`add_row` — callers hand it an iterator,
    never a list — and read back as sorted per-group summaries, per-axis
    rollups and heatmap matrices.
    """

    def __init__(self, max_bins=64):
        self.max_bins = max_bins
        self.groups = {}
        self.rows = 0
        self.campaigns = set()

    def add_row(self, row, campaign=None):
        """Fold one scalar row into its group."""
        key = group_key(row)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = GroupStats(max_bins=self.max_bins)
        group.add_row(row, campaign=campaign)
        self.rows += 1
        if campaign is not None:
            self.campaigns.add(campaign)

    def consume(self, triples):
        """Drain a ``(campaign, key, row)`` iterator; returns self."""
        for campaign, _key, row in triples:
            self.add_row(row, campaign=campaign)
        return self

    def group_items(self):
        """``(key, GroupStats)`` pairs in sorted key order."""
        return sorted(self.groups.items())

    def axis_values(self, axis):
        """Sorted distinct values of one group axis (0=model,
        1=family, 2=workload)."""
        return sorted({key[axis] for key in self.groups})

    def axis_rollup(self, axis):
        """Re-aggregate the groups' rows along one axis.

        Returns ``{axis value -> {"rows": n, "means": {metric: m}}}``
        where each mean is the row-count-weighted combination of the
        member groups' means — computed from the O(groups) state, not
        from rows.
        """
        rollup = {}
        for key, group in self.groups.items():
            entry = rollup.setdefault(
                key[axis],
                {"rows": 0, "sums": dict.fromkeys(METRIC_COLUMNS, 0.0)},
            )
            entry["rows"] += group.rows
            for column, stats in group.metrics.items():
                entry["sums"][column] += stats.mean * stats.count
        for entry in rollup.values():
            entry["means"] = {
                column: (total / entry["rows"] if entry["rows"] else None)
                for column, total in entry.pop("sums").items()
            }
        return rollup

    def matrix(self, metric, row_axis=0, col_axis=1):
        """``(row_labels, col_labels, cells)`` mean-matrix for a metric.

        ``cells[r][c]`` is the row-weighted mean of ``metric`` over the
        groups at that (row, column) coordinate, ``None`` where the
        grid has no cells — the heatmap-panel input.
        """
        row_labels = self.axis_values(row_axis)
        col_labels = self.axis_values(col_axis)
        sums = {}
        counts = {}
        for key, group in self.groups.items():
            coordinate = (key[row_axis], key[col_axis])
            stats = group.metrics[metric]
            sums[coordinate] = (
                sums.get(coordinate, 0.0) + stats.mean * stats.count
            )
            counts[coordinate] = counts.get(coordinate, 0) + stats.count
        cells = [
            [
                (sums[(r, c)] / counts[(r, c)]
                 if counts.get((r, c)) else None)
                for c in col_labels
            ]
            for r in row_labels
        ]
        return row_labels, col_labels, cells

    def summary(self):
        """JSON-friendly dump: totals plus sorted per-group summaries."""
        return {
            "rows": self.rows,
            "campaigns": sorted(self.campaigns),
            "groups": [
                {
                    "model": key[0],
                    "family": key[1],
                    "workload": key[2],
                    **group.summary(),
                }
                for key, group in self.group_items()
            ],
        }


def aggregate_dirs(dirs, max_bins=64):
    """Stream-aggregate explicit campaign directories."""
    return RootAggregate(max_bins=max_bins).consume(iter_merged_rows(dirs))


def aggregate_root(root, dirs=None, max_bins=64):
    """Stream-aggregate every campaign under a store root.

    ``dirs`` (explicit directories) restricts the pass; the default is
    every campaign directory under ``root`` in sorted name order.  Rows
    stream off :func:`repro.campaign.rows.iter_merged_rows` — the
    cross-campaign first-holder-wins merge — and memory stays O(groups)
    plus the iterator's key set.
    """
    if dirs is None:
        dirs = [os.path.join(root, name) for name in campaign_dirs(root)]
    return aggregate_dirs(dirs, max_bins=max_bins)
