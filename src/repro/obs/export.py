"""Trace and metrics export: JSONL, Chrome trace-event, JSON/CSV, text.

Chrome export follows the Trace Event Format (the JSON consumed by
``chrome://tracing`` and https://ui.perfetto.dev): one complete
``"ph": "X"`` event per span, timestamps in microseconds, spans bucketed
into one "process" per Grid site (with ``process_name`` metadata) and
one "thread" per trace.  Gauge time series additionally export as
counter (``"ph": "C"``) events, so per-site load and queue depths render
as stacked area tracks alongside the spans.

The text renderers at the bottom feed the CLI; every table also has a
machine-readable JSON/CSV twin (``metrics_to_dict``/``metrics_to_csv``,
``health_to_dict``/``health_to_csv``) so experiment artifacts can be
consumed without scraping.
"""

from __future__ import annotations

import csv
import io
import json
from typing import IO, Any, Dict, Iterable, List, Optional

from repro.experiments.report import format_table
from repro.obs.health import HealthRegistry
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.trace import Span, walk_tree


def span_to_dict(span: Span) -> Dict[str, Any]:
    """JSON-friendly view of one finished span."""
    return {
        "trace": span.trace_id,
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attrs": dict(span.attrs),
    }


def export_jsonl(spans: Iterable[Span], stream: IO[str]) -> int:
    """Write one JSON object per span; returns the number written."""
    written = 0
    for span in spans:
        stream.write(json.dumps(span_to_dict(span), sort_keys=True) + "\n")
        written += 1
    return written


def _site_pid(site: str, pids: Dict[str, int],
              events: List[Dict[str, Any]]) -> int:
    """Stable pid per site; emits the ``process_name`` metadata once."""
    pid = pids.get(site)
    if pid is None:
        pid = pids[site] = len(pids) + 1
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": site},
        })
    return pid


def chrome_trace_events(
    spans: Iterable[Span],
    pids: Optional[Dict[str, int]] = None,
) -> List[Dict[str, Any]]:
    """Spans as Chrome trace-event dicts (complete events + metadata)."""
    events: List[Dict[str, Any]] = []
    if pids is None:
        pids = {}
    for span in spans:
        site = str(span.attrs.get("site") or span.attrs.get("src") or "vo")
        pid = _site_pid(site, pids, events)
        events.append({
            "ph": "X",
            "name": span.name,
            "pid": pid,
            "tid": span.trace_id,
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "args": {k: v for k, v in span.attrs.items()
                     if isinstance(v, (str, int, float, bool))},
        })
    return events


def chrome_counter_events(
    registry: MetricsRegistry,
    pids: Optional[Dict[str, int]] = None,
) -> List[Dict[str, Any]]:
    """Gauge series as Chrome counter (``"ph": "C"``) events.

    Each sample becomes one counter event on the site's process track
    (the ``site`` label picks the pid; unlabeled series land on a
    shared ``vo`` track), so ``chrome://tracing`` draws the gauges as
    stacked area charts above the span rows.
    """
    events: List[Dict[str, Any]] = []
    if pids is None:
        pids = {}
    for series in registry.all_series():
        labels = dict(series.labels)
        site = str(labels.get("site", "vo"))
        pid = _site_pid(site, pids, events)
        for t, value in series.samples:
            events.append({
                "ph": "C",
                "name": series.name,
                "pid": pid,
                "tid": 0,
                "ts": t * 1e6,
                "args": {series.name: value},
            })
    return events


def export_chrome(spans: Iterable[Span], stream: IO[str],
                  registry: Optional[MetricsRegistry] = None) -> int:
    """Write the Chrome ``traceEvents`` JSON document.

    With a ``registry``, gauge series ride along as counter events on
    the same per-site process tracks.
    """
    pids: Dict[str, int] = {}
    events = chrome_trace_events(spans, pids=pids)
    if registry is not None:
        events.extend(chrome_counter_events(registry, pids=pids))
    json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, stream)
    return len(events)


def format_trace_tree(spans: List[Span], title: str = "") -> str:
    """ASCII rendering of one trace's span tree with timings."""
    if not spans:
        return "(no spans)"
    lines = []
    if title:
        lines.append(title)
    base = min(s.start for s in spans)
    lines.append(f"{'t+ms':>10}  {'dur ms':>10}  span")
    for depth, span in walk_tree(spans):
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(span.attrs.items())
            if isinstance(v, (str, int, float, bool))
        )
        lines.append(
            f"{(span.start - base) * 1e3:10.2f}  {span.duration * 1e3:10.2f}  "
            f"{'  ' * depth}{span.name}" + (f"  [{attrs}]" if attrs else "")
        )
    return "\n".join(lines)


def _labels_text(labels) -> str:
    return ",".join(f"{k}={v}" for k, v in labels) if labels else "-"


def render_counters(registry: MetricsRegistry) -> str:
    rows = [[c.name, _labels_text(c.labels), c.value]
            for c in registry.counters()]
    if not rows:
        return "(no counters recorded)"
    return format_table(["counter", "labels", "value"], rows,
                        title="Counters")


def _observed_mean(h: Histogram) -> float:
    """The exported mean: the float sum in observation order over the
    count (``Histogram.mean`` is the nanosecond-exact one)."""
    return h.total / h.count if h.count else 0.0


def render_histograms(registry: MetricsRegistry) -> str:
    rows = []
    for h in registry.histograms():
        rows.append([
            h.name, _labels_text(h.labels), h.count,
            f"{_observed_mean(h) * 1e3:.2f}", f"{h.p50 * 1e3:.2f}",
            f"{h.p95 * 1e3:.2f}", f"{h.p99 * 1e3:.2f}",
        ])
    if not rows:
        return "(no histograms recorded)"
    return format_table(
        ["histogram", "labels", "n", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
        rows, title="Latency histograms",
    )


def render_series(registry: MetricsRegistry) -> str:
    rows = []
    for series in registry.all_series():
        low, mean, high = series.stats()
        rows.append([
            series.name, _labels_text(series.labels), len(series.samples),
            f"{low:.2f}", f"{mean:.2f}", f"{high:.2f}", f"{series.last:.2f}",
        ])
    if not rows:
        return "(no time series recorded)"
    return format_table(
        ["series", "labels", "samples", "min", "mean", "max", "last"],
        rows, title="Time series (gauges)",
    )


def render_metrics(registry: MetricsRegistry) -> str:
    """Counters + histograms + gauge series as one text report."""
    return "\n\n".join([
        render_counters(registry),
        render_histograms(registry),
        render_series(registry),
    ])


# -- machine-readable metrics -----------------------------------------------


def metrics_to_dict(registry: MetricsRegistry) -> Dict[str, Any]:
    """The whole registry as one JSON-friendly document."""
    return {
        "counters": [
            {"name": c.name, "labels": dict(c.labels), "value": c.value}
            for c in registry.counters()
        ],
        "histograms": [
            {
                "name": h.name, "labels": dict(h.labels), "count": h.count,
                "mean": _observed_mean(h), "p50": h.p50, "p95": h.p95,
                "p99": h.p99,
            }
            for h in registry.histograms()
        ],
        "series": [
            {
                "name": s.name, "labels": dict(s.labels),
                "samples": [[t, v] for t, v in s.samples],
            }
            for s in registry.all_series()
        ],
    }


_METRICS_CSV_FIELDS = ["kind", "name", "labels", "count", "value",
                       "mean", "p50", "p95", "p99", "min", "max", "last"]


def metrics_to_csv(registry: MetricsRegistry) -> str:
    """One flat CSV over every instrument (one row per instrument)."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=_METRICS_CSV_FIELDS)
    writer.writeheader()
    for c in registry.counters():
        writer.writerow({"kind": "counter", "name": c.name,
                         "labels": _labels_text(c.labels), "value": c.value})
    for h in registry.histograms():
        writer.writerow({
            "kind": "histogram", "name": h.name,
            "labels": _labels_text(h.labels), "count": h.count,
            "mean": _observed_mean(h), "p50": h.p50, "p95": h.p95,
            "p99": h.p99,
        })
    for s in registry.all_series():
        low, mean, high = s.stats()
        writer.writerow({
            "kind": "series", "name": s.name,
            "labels": _labels_text(s.labels), "count": len(s.samples),
            "mean": mean, "min": low, "max": high, "last": s.last,
        })
    return out.getvalue()


# -- SLO / alert renderers --------------------------------------------------


def render_slo(engine: SLOEngine) -> str:
    """Error-budget table: one row per objective, verdict last."""
    rows = []
    for status in engine.statuses():
        rows.append([
            status.name, status.endpoint, status.objective, status.level,
            f"{status.target:.3f}", status.total, status.bad,
            f"{status.good_rate:.4f}", f"{status.budget_consumed:.2f}x",
            status.verdict,
        ])
    if not rows:
        return "(no SLOs configured)"
    return format_table(
        ["slo", "endpoint", "objective", "level", "target", "events",
         "bad", "good rate", "budget", "verdict"],
        rows, title="Service-level objectives",
    )


def render_alerts(engine: SLOEngine) -> str:
    """The chronological burn-rate alert log plus still-active alerts."""
    if not engine.alert_log:
        return "(no burn-rate alerts fired)"
    lines = ["Burn-rate alerts"]
    for entry in engine.alert_log:
        lines.append(
            f"  t={entry['at']:9.2f}s  {entry['kind']:<8}  "
            f"{entry['slo']}/{entry['rule']}  burn={entry['burn']:.2f}"
        )
    active = engine.active_alerts()
    lines.append(f"active now: "
                 + (", ".join(f"{e['slo']}/{e['rule']}" for e in active)
                    if active else "none"))
    return "\n".join(lines)


# -- health renderers -------------------------------------------------------


def health_to_dict(health: HealthRegistry) -> Dict[str, Any]:
    """The registry's full state as one JSON-friendly document."""
    return {
        "nodes": [
            {
                "node": node,
                "state": health.node_state(node),
                "since": health.node_since(node),
                "services": {
                    svc: health.service_state(node, svc)
                    for svc in health.services_of(node)
                },
            }
            for node in health.nodes()
        ],
        "summary": health.summary(),
        "transitions": list(health.transitions),
    }


def health_to_csv(health: HealthRegistry) -> str:
    """One row per node and per service (flat, diff-friendly)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["node", "service", "state", "since"])
    for node in health.nodes():
        writer.writerow([node, "", health.node_state(node),
                         health.node_since(node)])
        for svc in health.services_of(node):
            writer.writerow([node, svc, health.service_state(node, svc), ""])
    return out.getvalue()


def render_health(health: HealthRegistry) -> str:
    """Node/service states plus the transition log."""
    rows = []
    for node in health.nodes():
        services = ", ".join(
            f"{svc}={health.service_state(node, svc)}"
            for svc in health.services_of(node)
        )
        rows.append([node, health.node_state(node),
                     f"{health.node_since(node):.2f}", services or "-"])
    if not rows:
        return "(no health signals recorded)"
    table = format_table(["node", "state", "since", "services"], rows,
                         title="VO health")
    summary = health.summary()
    lines = [table, "summary: " + ", ".join(
        f"{state}={count}" for state, count in summary.items() if count
    )]
    if health.transitions:
        lines.append("transitions:")
        for entry in health.transitions:
            target = (f"{entry['site']}/{entry['service']}"
                      if entry["service"] else entry["site"])
            lines.append(
                f"  t={entry['at']:9.2f}s  {target:<24}  -> {entry['state']:<10}"
                f"  ({entry['reason']})"
            )
    return "\n".join(lines)


# -- the unified run report -------------------------------------------------


def render_run_report(vo, top: int = 3) -> str:
    """Everything the observability plane knows about one run.

    Sections appear only when their tier was on: health registry, SLO
    budgets + alert log, metrics tables, and trace analytics (self
    times, critical paths, waterfalls for the ``top`` slowest traces).
    """
    from repro.obs.analyze import format_trace_analytics

    sections: List[str] = []
    obs = vo.obs
    if obs.health is not None:
        sections.append(render_health(obs.health))
    if obs.slo is not None:
        sections.append(render_slo(obs.slo))
        sections.append(render_alerts(obs.slo))
    if obs.enabled:
        sections.append(render_metrics(obs.metrics))
        traces = obs.tracer.traces()
        if traces:
            sections.append(format_trace_analytics(traces, top=top))
    if not sections:
        return "(observability disabled: nothing to report)"
    return "\n\n".join(sections)
