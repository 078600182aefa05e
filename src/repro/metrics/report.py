"""Plain-text tabular reports for experiment results.

The paper presents its results as figures; this module renders the same data
as aligned text tables so that ``python -m`` experiment runs and benchmark
harnesses can print the rows/series a figure would plot, without any plotting
dependency.
"""
from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

__all__ = ["format_table", "format_series", "format_comparison"]

Number = Union[int, float]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{int(value)}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render *rows* as an aligned, pipe-separated text table."""
    str_rows: List[List[str]] = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

    lines = [fmt_row(list(headers)), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def format_comparison(
    rows: Iterable[Sequence],
    label_a: str = "a",
    label_b: str = "b",
) -> str:
    """Render ``(scenario, metric, a, b, delta)`` comparison rows as a table.

    Used by ``python -m repro campaign report --compare`` to show how two
    campaigns' per-scenario median metrics differ; the relative change column
    is blank when the reference value is zero.
    """
    table_rows = []
    for scenario, metric, a, b, delta in rows:
        relative = f"{100.0 * delta / a:+.1f}%" if a else ""
        table_rows.append((scenario, metric, a, b, delta, relative))
    return format_table(
        ["scenario", "metric", label_a, label_b, "delta", "rel"], table_rows
    )


def format_series(
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
) -> str:
    """Render one or more y-series against a shared x-axis as a table."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        row = [x]
        for name in series:
            values = series[name]
            row.append(values[i] if i < len(values) else "")
        rows.append(row)
    return format_table(headers, rows)
