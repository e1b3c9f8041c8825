"""Figure 4 rendering.

Figure 4 shows, for 5-fault and 42-fault injections and each of the three
models, two time-series panels over 0–1000 ms: application throughput
(nodes active) and the task distribution (nodes per task, whose settled
levels are the ≈ 25/75/25 of the 1:3:1 census).  The six runs are a
campaign (:func:`repro.campaign.paper.figure4_spec`, assembled by
:func:`repro.campaign.paper.artifact`); this module only draws them.
``render_series`` draws any series as an ASCII strip chart so the CLI
and the benches can display the reproduced shapes in a terminal.
"""

def render_series(times_ms, values, height=8, width=72, title="",
                  marker="*"):
    """ASCII strip chart of one time series."""
    if not values:
        return "(empty series: {})".format(title)
    lo = min(values)
    hi = max(values)
    span = (hi - lo) or 1.0
    # Downsample columns.
    columns = []
    n = len(values)
    for c in range(width):
        i = int(c * n / width)
        columns.append(values[i])
    grid = [[" "] * width for _ in range(height)]
    for c, value in enumerate(columns):
        row = int((value - lo) / span * (height - 1))
        grid[height - 1 - row][c] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append("{:>7.1f} +{}".format(hi, "-" * width))
    for row in grid:
        lines.append("        |{}".format("".join(row)))
    lines.append("{:>7.1f} +{}".format(lo, "-" * width))
    lines.append(
        "         t: {:.0f} .. {:.0f} ms".format(times_ms[0], times_ms[-1])
    )
    return "\n".join(lines)


def render_figure4(data, metric="active_nodes"):
    """Render the whole figure as text panels, paper layout."""
    blocks = []
    for fault_count in sorted(data):
        for model, result in data[fault_count].items():
            series = result.series
            blocks.append(
                render_series(
                    series.time_ms,
                    getattr(series, metric),
                    title="[{} faults] {} - {}".format(
                        fault_count, model, metric
                    ),
                )
            )
            census_lines = [
                "[{} faults] {} - census per task:".format(fault_count, model)
            ]
            for task_id, counts in sorted(series.census.items()):
                tail = counts[-5:]
                census_lines.append(
                    "  task {}: start={} end={} (last 5: {})".format(
                        task_id,
                        counts[0] if counts else "-",
                        counts[-1] if counts else "-",
                        tail,
                    )
                )
            blocks.append("\n".join(census_lines))
    return "\n\n".join(blocks)
