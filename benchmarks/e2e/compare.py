"""Judge a candidate's runs against a baseline's with BENCHMARK.json's bounds.

For each workload and end-to-end metric: ``regressed`` when the
candidate's median is worse than the baseline's by more than the bound;
``unresolved`` when either side's spread (interquartile range over the
median) is wider than the bound, unless every candidate run beats every
baseline run; ``ok`` otherwise.  A workload whose failed/attempted share
rose is ``regressed`` on ``failed_frac``.
"""

import statistics

VERDICTS_FAILING = ("regressed", "missing")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def metric_values(runs, name):
    return [run["metrics"][name]["value"] for run in runs]


def summarize(untraced):
    """Median and quartiles of every metric, per workload."""
    summary = {}
    for workload, runs in untraced.items():
        summary[workload] = {}
        for name, entry in runs[0]["metrics"].items():
            values = metric_values(runs, name)
            q1, q3 = quartiles(values)
            summary[workload][name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "unit": entry["unit"], "runs": len(values),
            }
    return summary


def failed_frac(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def verdict(metric, base, cand):
    """``(status, relative change of the median)`` for one pairing."""
    lower = metric["better"] == "lower"
    base_median = statistics.median(base)
    change = (statistics.median(cand) - base_median) / base_median
    worse = change if lower else -change
    beats_all = (
        max(cand) < min(base) if lower else min(cand) > max(base)
    )
    if max(spread(base), spread(cand)) > metric["bound"] and not beats_all:
        return "unresolved", change
    return ("regressed" if worse > metric["bound"] else "ok"), change


def compare(benchmark, base, cand):
    """One row per workload x end-to-end metric, plus ``failed_frac``."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        base_runs = base["untraced"].get(workload)
        if not base_runs:
            continue
        cand_runs = cand["untraced"].get(workload)
        if not cand_runs:
            rows.append({"workload": workload, "metric": "*",
                         "status": "missing"})
            continue
        for metric in benchmark["end_to_end"]:
            base_values = metric_values(base_runs, metric["name"])
            cand_values = metric_values(cand_runs, metric["name"])
            status, change = verdict(metric, base_values, cand_values)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "base": statistics.median(base_values),
                "cand": statistics.median(cand_values),
                "change": change, "bound": metric["bound"],
                "status": status,
            })
        base_frac, cand_frac = failed_frac(base_runs), failed_frac(cand_runs)
        rows.append({
            "workload": workload, "metric": "failed_frac",
            "base": base_frac, "cand": cand_frac,
            "change": cand_frac - base_frac, "bound": 0.0,
            "status": "regressed" if cand_frac > base_frac else "ok",
        })
    return rows


def format_rows(rows):
    lines = ["{:<16} {:<18} {:>12} {:>12} {:>8} {:>6}  {}".format(
        "workload", "metric", "base", "cand", "change", "bound", "status")]
    for row in rows:
        if row["status"] == "missing":
            lines.append("{:<16} {:<18} {:>12} {:>12} {:>8} {:>6}  {}".format(
                row["workload"], row["metric"], "", "", "", "", "missing"))
            continue
        lines.append(
            "{:<16} {:<18} {:>12.6g} {:>12.6g} {:>+7.1%} {:>6.0%}  {}".format(
                row["workload"], row["metric"], row["base"], row["cand"],
                row["change"], row["bound"], row["status"]))
    return "\n".join(lines)
