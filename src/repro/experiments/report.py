"""Plain-text rendering of experiment results (tables and series).

Besides the table/series primitives every ``format_*`` helper builds
on, this module hosts the A/B pair table (baseline row, optimized row,
``ratio (results ==)`` row — Figs. 14, 15 and 17b) and the *aggregate
experiment report*: one document stitching together every shipped
evaluation artefact (table 1 and figures 10–19), rendered by
:func:`render_experiment_report` and reachable as ``repro report
experiments``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

Cell = Union[str, int, float]


def banner(name: str) -> str:
    """The ``=== name ===`` rule above one experiment's section."""
    return f"=== {name} " + "=" * max(0, 70 - len(name))


def render_experiment_report(
    quick: bool = True,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> str:
    """One document covering all shipped experiments.

    Runs each entry of ``repro.experiments.registry.EXPERIMENTS`` (in table
    order) through the one engine the CLI uses — so the sections are
    byte-identical to the standalone runs — and joins the rendered
    sections under ``=== name ===`` banners.  ``names`` restricts the
    report to a subset (unknown names raise).  The table import is
    lazy: every figure module imports this one for its table helpers.
    """
    from repro.experiments.harness import run_experiment
    from repro.experiments.registry import EXPERIMENTS

    selected = tuple(names) if names is not None else tuple(EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    return join_sections({
        name: run_experiment(name, quick=quick, jobs=jobs).text
        for name in selected
    })


def join_sections(sections: Mapping[str, str]) -> str:
    """Rendered sections under their banners, in the mapping's order."""
    return "\n\n".join(banner(name) + "\n" + text
                       for name, text in sections.items())


def pair_cells(points: Iterable[Any], cell: Callable[[Any], Any],
               optimized: Callable[[Any], bool]) -> Dict[Any, Dict[bool, Any]]:
    """Group A/B sweep points: ``{cell: {False: baseline, True: optimized}}``."""
    cells: Dict[Any, Dict[bool, Any]] = {}
    for point in points:
        cells.setdefault(cell(point), {})[optimized(point)] = point
    return dict(sorted(cells.items()))


def check_pairs_agree(cells: Mapping[Any, Mapping[bool, Any]],
                      what: str) -> None:
    """Every complete pair returned the same result set, or raise."""
    for cell, pair in cells.items():
        if len(pair) == 2 and pair[False].result_digest != pair[True].result_digest:
            raise AssertionError(
                f"{what}: optimized result digest diverged from the "
                f"baseline at {cell}"
            )


def pair_rows(
    cells: Mapping[Any, Mapping[bool, Any]],
    row: Callable[[Any], List[Cell]],
    metric: Callable[[Any], float],
    label: str = "ratio",
    verdict: Optional[Callable[[Any, Any], Optional[str]]] = None,
) -> List[List[Cell]]:
    """Table rows of an A/B sweep: baseline, optimized, then one
    ``<label> N.Nx (results ==)`` row per complete pair.

    ``row`` renders one point (its leading cells are the pair's cell
    key); ``metric`` is the cost whose baseline/optimized ratio the
    summary row reports; ``verdict`` names a pair whose digests cannot
    be compared (it returns the text to show, or ``None`` to compare).
    """
    rows: List[List[Cell]] = []
    for cell, pair in cells.items():
        rows.extend(row(pair[side]) for side in (False, True) if side in pair)
        if len(pair) < 2:
            continue
        base, opt = pair[False], pair[True]
        ratio = metric(base) / max(metric(opt), 1e-9)
        match = verdict(base, opt) if verdict is not None else None
        if match is None:
            match = "==" if base.result_digest == opt.result_digest else "!!"
        key = list(cell) if isinstance(cell, tuple) else [cell]
        summary = key + [f"{label} {ratio:.1f}x (results {match})"]
        rows.append(summary + [""] * (len(rows[-1]) - len(summary)))
    return rows


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
