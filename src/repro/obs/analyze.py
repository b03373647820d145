"""Trace analytics: critical paths, self-time breakdowns, waterfalls.

The raw tracer answers "what happened"; this module answers "what was
*slow* and why".  Three read-side analyses over captured spans:

* :func:`critical_path` — the chain of spans that determines a trace's
  end-to-end latency (from the root, repeatedly descend into the child
  that finishes last), with per-hop slack;
* :func:`self_time_breakdown` — per-operation totals where *self* time
  excludes time covered by child spans, so the table points at actual
  cost centres instead of blaming every wrapper;
* :func:`slowest_traces` / :func:`format_waterfall` — top-k traces by
  root duration rendered as offset/duration bars, the classic
  distributed-tracing waterfall.

All functions are pure over finished :class:`~repro.obs.trace.Span`
lists, so they work on a live tracer or on spans re-read from a JSONL
export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import format_table
from repro.obs.trace import Span, span_children


def trace_root(spans: List[Span]) -> Optional[Span]:
    """The root of one trace's span list (longest root wins on ties)."""
    if not spans:
        return None
    known = {s.span_id for s in spans}
    roots = [s for s in spans
             if s.parent_id is None or s.parent_id not in known]
    if not roots:  # defensive: cyclic/partial capture
        roots = spans
    return max(roots, key=lambda s: (s.duration, -s.start, -s.span_id))


def critical_path(spans: List[Span]) -> List[Span]:
    """The latency-determining chain of one trace.

    Starting at the root, descend into the child that *ends last* —
    the one the parent had to wait for — until a leaf is reached.
    Parallel siblings off the path contribute no end-to-end latency.
    """
    root = trace_root(spans)
    if root is None:
        return []
    index = span_children(spans)
    path = [root]
    node = root
    while True:
        children = index.get(node.span_id, [])
        if not children:
            break
        node = max(children, key=lambda s: (s.end, s.span_id))
        path.append(node)
    return path


@dataclass
class OpStat:
    """Aggregated cost of one span name across a span set."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def add(self, duration: float, self_time: float) -> None:
        self.count += 1
        self.total_s += duration
        self.self_s += self_time
        self.max_s = max(self.max_s, duration)


def self_time_breakdown(spans: List[Span]) -> List[OpStat]:
    """Per-operation totals with child-exclusive self time.

    Self time of a span is its duration minus the union of its
    children's intervals (clipped to the span), so time where two
    children overlap is only subtracted once and a child running past
    its parent never produces negative self time.
    """
    index = span_children(spans)
    stats: Dict[str, OpStat] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in index.get(span.span_id, []):  # sorted by start
            child_end = child.end if child.end is not None else child.start
            lo = max(child.start, cursor)
            hi = min(child_end, span.end if span.end is not None else child_end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
            cursor = max(cursor, lo)
        self_time = max(span.duration - covered, 0.0)
        stat = stats.get(span.name)
        if stat is None:
            stat = stats[span.name] = OpStat(span.name)
        stat.add(span.duration, self_time)
    return sorted(stats.values(), key=lambda s: (-s.self_s, s.name))


def slowest_traces(traces: Dict[int, List[Span]],
                   k: int = 5) -> List[Tuple[int, List[Span], float]]:
    """Top-``k`` traces by root duration: ``(trace_id, spans, duration)``."""
    if k < 0:
        raise ValueError(f"k must be >= 0, not {k}")
    ranked = []
    for trace_id, spans in traces.items():
        root = trace_root(spans)
        if root is None:
            continue
        ranked.append((trace_id, spans, root.duration))
    ranked.sort(key=lambda item: (-item[2], item[0]))
    return ranked[:k]


# -- renderers --------------------------------------------------------------


def format_critical_path(spans: List[Span], title: str = "") -> str:
    """One line per hop: start offset, duration, slack to the parent."""
    path = critical_path(spans)
    if not path:
        return "(empty trace)"
    base = path[0].start
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'t+ms':>10}  {'dur ms':>10}  {'slack ms':>9}  span")
    prev_end = path[0].end
    for depth, span in enumerate(path):
        # slack: how much of the parent's tail this hop did NOT explain
        slack = 0.0 if depth == 0 else max((prev_end or 0.0) - (span.end or 0.0), 0.0)
        prev_end = span.end
        lines.append(
            f"{(span.start - base) * 1e3:10.2f}  {span.duration * 1e3:10.2f}  "
            f"{slack * 1e3:9.2f}  {'  ' * depth}{span.name}"
        )
    total = (path[0].duration or 0.0) * 1e3
    lines.append(f"critical path: {len(path)} hops over {total:.2f} ms")
    return "\n".join(lines)


def format_self_times(stats: List[OpStat], top: int = 15,
                      title: str = "Self-time by operation") -> str:
    """Self-time table, heaviest operations first."""
    if not stats:
        return "(no spans captured)"
    total_self = sum(s.self_s for s in stats) or 1.0
    rows = []
    for stat in stats[:top]:
        rows.append([
            stat.name, stat.count,
            f"{stat.self_s * 1e3:.2f}", f"{100.0 * stat.self_s / total_self:.1f}%",
            f"{stat.total_s * 1e3:.2f}", f"{stat.max_s * 1e3:.2f}",
        ])
    return format_table(
        ["operation", "n", "self ms", "self %", "total ms", "max ms"],
        rows, title=title,
    )


def format_waterfall(spans: List[Span], width: int = 40,
                     title: str = "") -> str:
    """Offset/duration bars for one trace, depth-first order."""
    from repro.obs.trace import walk_tree

    if not spans:
        return "(empty trace)"
    base = min(s.start for s in spans)
    span_end = max((s.end if s.end is not None else s.start) for s in spans)
    total = max(span_end - base, 1e-12)
    lines = []
    if title:
        lines.append(title)
    for depth, span in walk_tree(spans):
        lo = int(round((span.start - base) / total * width))
        hi = int(round(((span.end if span.end is not None else span.start)
                        - base) / total * width))
        hi = max(hi, lo + 1)
        bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
        lines.append(
            f"|{bar}| {span.duration * 1e3:9.2f} ms  {'  ' * depth}{span.name}"
        )
    return "\n".join(lines)


def format_trace_analytics(traces: Dict[int, List[Span]], top: int = 3) -> str:
    """The combined analytics report: self times + slowest waterfalls."""
    all_spans = [span for spans in traces.values() for span in spans]
    if not all_spans:
        return "(no spans captured)"
    sections = [format_self_times(self_time_breakdown(all_spans))]
    for trace_id, spans, duration in slowest_traces(traces, k=top):
        sections.append(format_critical_path(
            spans,
            title=(f"trace {trace_id} — {duration * 1e3:.2f} ms, "
                   f"{len(spans)} spans"),
        ))
        sections.append(format_waterfall(spans))
    return "\n\n".join(sections)


__all__ = [
    "OpStat",
    "critical_path",
    "format_critical_path",
    "format_self_times",
    "format_trace_analytics",
    "format_waterfall",
    "self_time_breakdown",
    "slowest_traces",
    "trace_root",
]
