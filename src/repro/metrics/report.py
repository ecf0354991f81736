"""Plain-text reporting helpers used by the benchmark harness.

The harness regenerates the paper's tables and figure series as ASCII tables
printed to stdout (matplotlib is intentionally not a dependency).  These
helpers keep the formatting consistent across the experiment modules.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "format_series", "format_sweep"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table."""
    string_rows = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in string_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in string_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(series: Mapping[str, Mapping[str, float]], title: str | None = None, precision: int = 3) -> str:
    """Render a nested mapping ``{series_name: {x_label: value}}`` as a table."""
    x_labels: list[str] = []
    for values in series.values():
        for label in values:
            if label not in x_labels:
                x_labels.append(label)
    headers = ["series"] + list(x_labels)
    rows = []
    for name, values in series.items():
        rows.append([name] + [round(values.get(label, float("nan")), precision) for label in x_labels])
    return format_table(headers, rows, title=title)


def format_sweep(
    data: Mapping[str, Mapping[str, Mapping[str, float]]],
    columns: Sequence[tuple[str, str]] | None = None,
    title: str | None = None,
    row_header: str = "Accelerator",
) -> str:
    """Render a sweep result ``{workload: {series: {metric: value}}}``.

    This is the shared formatter for the orchestrated experiment sweeps:
    one fixed-width table per workload, one row per series (accelerator),
    one column per metric.  ``columns`` maps display headers to metric keys
    (``[("Off-chip (KB)", "offchip_kb"), ...]``); when omitted, the metric
    keys of the first series are used verbatim.  ``title`` is suffixed with
    the workload name per block.
    """
    blocks = []
    for workload, series in data.items():
        block_columns = columns
        if block_columns is None:
            first = next(iter(series.values()), {})
            block_columns = [(key, key) for key in first]
        rows = [
            [name] + [values.get(key, float("nan")) for _, key in block_columns]
            for name, values in series.items()
        ]
        block_title = f"{title} ({workload})" if title else str(workload)
        blocks.append(
            format_table(
                [row_header] + [header for header, _ in block_columns],
                rows,
                title=block_title,
            )
        )
    return "\n\n".join(blocks)


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
