"""Plain-text reporting for the experiment reproductions.

The benchmarks print the same rows/series the paper's tables and figures
report; this module renders them as aligned text tables so the output of
``pytest benchmarks/ --benchmark-only`` doubles as the raw data behind
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def stream_tick_table(ticks: Sequence[object]) -> "tuple[List[str], List[List[object]]]":
    """Headers and rows for a per-tick streaming report.

    ``ticks`` are :class:`repro.streaming.TickResult` objects; the rows
    show each tick's window, cluster count, TMFG round count, the per-tick
    phase decomposition, and the drift against the previous tick's
    clustering.
    """
    headers = [
        "tick",
        "window",
        "clusters",
        "rounds",
        "sim(s)",
        "tmfg(s)",
        "apsp(s)",
        "total(s)",
        "drift-ARI",
    ]
    rows: List[List[object]] = []
    for tick in ticks:
        steps = tick.step_seconds
        rows.append(
            [
                tick.tick,
                f"[{tick.start}, {tick.stop})",
                tick.num_clusters,
                tick.rounds,
                steps.get("similarity", 0.0),
                steps.get("tmfg", 0.0),
                steps.get("apsp", 0.0),
                steps.get("total", 0.0),
                "-" if tick.drift_ari is None else f"{tick.drift_ari:.3f}",
            ]
        )
    return headers, rows


def format_stream_ticks(ticks: Sequence[object], title: Optional[str] = None) -> str:
    """Render a streaming run's ticks as an aligned text table."""
    headers, rows = stream_tick_table(ticks)
    return format_table(headers, rows, title=title, float_format="{:.4f}")


def format_mapping(title: str, mapping: Mapping[str, object]) -> str:
    """Render a flat mapping as ``key: value`` lines under a title."""
    lines = [title]
    for key, value in mapping.items():
        if isinstance(value, float):
            lines.append(f"  {key}: {value:.4f}")
        else:
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)
