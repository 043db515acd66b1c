"""Plain-text table rendering for figure reproductions.

The benchmarks print each figure as the paper presents it: workloads as
rows, schemes as columns, values normalized to the figure's baseline,
with a geometric-mean summary row (the paper's "on average" numbers).
"""
from __future__ import annotations

from repro.sim.stats import geometric_mean


def render_table(title: str, columns: list[str],
                 rows: dict[str, dict[str, float]],
                 baseline_note: str = "",
                 mean_row: bool = True,
                 fmt: str = "{:.3f}") -> str:
    """Render a {row: {column: value}} mapping as an aligned text table."""
    if not rows:
        raise ValueError("cannot render an empty table")
    name_width = max(len(r) for r in rows) + 2
    col_width = max(12, max(len(c) for c in columns) + 2)
    lines = [title]
    if baseline_note:
        lines.append(baseline_note)
    header = " " * name_width + "".join(c.rjust(col_width) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for name, values in rows.items():
        cells = []
        for col in columns:
            v = values.get(col)
            cells.append(("-" if v is None else fmt.format(v))
                         .rjust(col_width))
        lines.append(name.ljust(name_width) + "".join(cells))
    if mean_row:
        lines.append("-" * len(header))
        cells = []
        for col in columns:
            vals = [values[col] for values in rows.values()
                    if values.get(col) is not None and values[col] > 0]
            cells.append((fmt.format(geometric_mean(vals))
                          if vals else "-").rjust(col_width))
        lines.append("geomean".ljust(name_width) + "".join(cells))
    return "\n".join(lines)


#: every outcome class a fault campaign can report, display order
CAMPAIGN_OUTCOMES = ["match", "detected", "data_loss", "unsupported",
                     "no_crash", "diverged"]


def render_campaign(report: dict) -> str:
    """Render a fault-injection campaign report (``repro faults``)."""
    title = (f"Fault-injection campaign: {report['cases']} cases, "
             f"seed {report['seed']}")
    rows = {
        cell: {o: float(stats["outcomes"].get(o, 0))
               for o in CAMPAIGN_OUTCOMES}
        for cell, stats in sorted(report["cells"].items())}
    blocks = [render_table(title, CAMPAIGN_OUTCOMES, rows,
                           mean_row=False, fmt="{:.0f}")]
    if report["crash_points"]:
        blocks.append(render_kv(
            "Crash-point coverage (runtime triggers)",
            dict(sorted(report["crash_points"].items()))))
    for entry in report["diverged"]:
        pairs = {k: v for k, v in entry.items() if v is not None}
        blocks.append(render_kv(
            f"DIVERGED: {entry['scheme']}/{entry['workload']}", pairs))
    if report["diverged"]:
        blocks.append(f"{len(report['diverged'])} divergence(s) — "
                      "golden-state validation FAILED")
    else:
        blocks.append("zero golden-state divergences")
    return "\n\n".join(blocks)


def render_kv(title: str, pairs: dict[str, object]) -> str:
    """Render a simple key/value block (configs, storage tables)."""
    width = max(len(k) for k in pairs) + 2
    lines = [title]
    for key, value in pairs.items():
        lines.append(f"  {key.ljust(width)}{value}")
    return "\n".join(lines)
