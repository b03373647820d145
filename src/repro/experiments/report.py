"""Plain-text rendering of experiment results (tables and series).

Besides the table/series primitives every ``format_*`` helper builds
on, this module hosts the *aggregate experiment report*: one document
stitching together every shipped evaluation artefact (table 1 and
figures 10–19), rendered by :func:`render_experiment_report` and
reachable as ``repro report experiments``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def render_experiment_report(
    quick: bool = True,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> str:
    """One document covering all shipped experiments.

    Runs each experiment of the CLI's command table (``cli.COMMANDS``,
    in its presentation order) through the same per-command driver the
    CLI uses — so the sections are byte-identical to the standalone
    runs — and joins the rendered sections under ``=== name ===``
    banners.  ``names`` restricts the report to a subset (unknown names
    raise).  The CLI import happens lazily: :mod:`repro.cli` imports
    this module for its table helpers, so a top-level import would be
    circular.
    """
    from repro.cli import COMMANDS, _run_command

    selected = tuple(names) if names is not None else tuple(COMMANDS)
    unknown = [n for n in selected if n not in COMMANDS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    sections = []
    for name in selected:
        banner = f"=== {name} " + "=" * max(0, 70 - len(name))
        sections.append(banner + "\n" + _run_command(name, quick, jobs=jobs))
    return "\n\n".join(sections)


@dataclass
class Table:
    """A simple column-aligned text table."""

    headers: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    title: str = ""

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def _fmt(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:,.1f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]],
                 title: str = "") -> str:
    """Render an aligned ASCII table."""
    text_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in text_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Cell], ys: Sequence[Cell],
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render one figure series as an (x, y) table."""
    return format_table([x_label, y_label], list(zip(xs, ys)), title=name)


def format_multi_series(
    title: str,
    x_label: str,
    xs: Sequence[Cell],
    series: Dict[str, Sequence[Cell]],
    series_xs: Dict[str, Sequence[Cell]] = None,
) -> str:
    """Render several series sharing an x axis (one column per series).

    When a series was sampled at a different x-set than ``xs``, pass its
    own x values via ``series_xs`` so the cells line up by x value, not
    by index.
    """
    headers = [x_label] + list(series)
    # build per-series x -> y maps so differing x-sets align correctly
    maps: Dict[str, Dict[Cell, Cell]] = {}
    for name, values in series.items():
        own_xs = (series_xs or {}).get(name, xs)
        maps[name] = dict(zip(own_xs, values))
    rows = []
    for x in xs:
        row: List[Cell] = [x]
        for name in series:
            row.append(maps[name].get(x, ""))
        rows.append(row)
    return format_table(headers, rows, title=title)
