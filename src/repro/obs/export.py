"""Trace and metrics export: JSONL, Chrome trace-event, the run report.

Chrome export follows the Trace Event Format (the JSON consumed by
``chrome://tracing`` and https://ui.perfetto.dev): one complete
``"ph": "X"`` event per span, timestamps in microseconds, spans bucketed
into one "process" per Grid site (with ``process_name`` metadata) and
one "thread" per trace.  Gauge time series additionally export as
counter (``"ph": "C"``) events, so per-site load and queue depths render
as stacked area tracks alongside the spans.

The renderers at the bottom feed ``repro report``, the one
observability command: :func:`render_run_report` is the run as text,
:func:`run_record` the same sections as one JSON-friendly record (plus
the :mod:`repro.stats` snapshot).  One section list drives both, so a
section is in the record exactly when it is in the text.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import partial
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.experiments.report import format_table
from repro.obs.analyze import (
    critical_path,
    format_trace_analytics,
    self_time_breakdown,
    slowest_traces,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import SLOEngine, detection_timeline
from repro.obs.trace import Span
from repro.simkernel.kernel import entries


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
    """The journal's burn-rate alerts in order, plus still-active ones."""
    alerts = engine.alerts()
    if not alerts:
        return "(no burn-rate alerts fired)"
    lines = ["Burn-rate alerts"]
    for entry in alerts:
        lines.append(
            f"  t={entry['at']:9.2f}s  {entry['kind']:<8}  "
            f"{entry['slo']}/{entry['rule']}  burn={entry['burn']:.2f}"
        )
    active = engine.active_alerts()
    lines.append(f"active now: "
                 + (", ".join(f"{e['slo']}/{e['rule']}" for e in active)
                    if active else "none"))
    return "\n".join(lines)


def render_detection(journal: List[Dict[str, Any]]) -> str:
    """Each journaled crash with its MTTD / MTTR ("" if none crashed)."""
    records = detection_timeline(journal)
    if not records:
        return ""
    lines = ["Crash detection"]
    for rec in records:
        mttd = f"{rec.mttd:.2f}s" if rec.mttd is not None else "UNDETECTED"
        mttr = f"{rec.mttr:.2f}s" if rec.mttr is not None else "-"
        lines.append(f"  {rec.site} crashed t={rec.crash_at:.2f}s: "
                     f"detected in {mttd}, incident closed in {mttr}")
    return "\n".join(lines)


# -- health: a fold over the fault plane's journal --------------------------

#: journal kind -> (the node state it starts, the transition's reason)
_TRANSITIONS = {"crash": ("down", "fault-plane crash"),
                "restart": ("up", "fault-plane restart")}


def node_health(journal: List[Dict[str, Any]],
                nodes: Iterable[str]) -> Dict[str, Tuple[str, float]]:
    """``{node: (state, since)}`` for each of ``nodes``, sorted: ``down``
    from a fault-plane ``crash`` until its ``restart``, ``up`` otherwise;
    ``since`` is the time of the node's last such entry (0.0 if none)."""
    health = {node: ("up", 0.0) for node in sorted(nodes)}
    for entry in entries(journal, "faults", *_TRANSITIONS):
        health[entry["site"]] = (_TRANSITIONS[entry["kind"]][0], entry["at"])
    return health


def _health_summary(health: Dict[str, Tuple[str, float]]) -> Dict[str, int]:
    """How many nodes are in each state."""
    states = [state for state, _ in health.values()]
    return {state: states.count(state) for state in ("up", "down")}


def health_to_dict(journal: List[Dict[str, Any]],
                   nodes: Iterable[str]) -> Dict[str, Any]:
    """The health fold as one JSON-friendly document."""
    health = node_health(journal, nodes)
    return {
        "nodes": [{"node": node, "state": state, "since": since}
                  for node, (state, since) in health.items()],
        "summary": _health_summary(health),
        "transitions": entries(journal, "faults", *_TRANSITIONS),
    }


def render_health(journal: List[Dict[str, Any]], nodes: Iterable[str]) -> str:
    """Node states plus the journal's crash/restart transitions."""
    health = node_health(journal, nodes)
    if not health:
        return "(no health signals recorded)"
    rows = [[node, state, f"{since:.2f}"]
            for node, (state, since) in health.items()]
    lines = [format_table(["node", "state", "since"], rows, title="VO health"),
             "summary: " + ", ".join(
                 f"{state}={count}"
                 for state, count in _health_summary(health).items() if count)]
    transitions = entries(journal, "faults", *_TRANSITIONS)
    if transitions:
        lines.append("transitions:")
        for entry in transitions:
            state, reason = _TRANSITIONS[entry["kind"]]
            lines.append(f"  t={entry['at']:9.2f}s  {entry['site']:<24}"
                         f"  -> {state:<10}  ({reason})")
    return "\n".join(lines)


# -- the unified run report -------------------------------------------------


def _slo_rows(engine: SLOEngine) -> List[Dict[str, Any]]:
    """The error-budget table as data: one row per objective."""
    return [{"slo": s.name, "endpoint": s.endpoint, "objective": s.objective,
             "level": s.level, "target": s.target, "events": s.total,
             "bad": s.bad, "good_rate": s.good_rate,
             "budget_consumed": s.budget_consumed, "verdict": s.verdict}
            for s in engine.statuses()]


def _alerts(engine: SLOEngine) -> Dict[str, Any]:
    return {"log": engine.alerts(), "active": engine.active_alerts()}


def _detection_rows(journal: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [{**asdict(rec), "mttd": rec.mttd, "mttr": rec.mttr}
            for rec in detection_timeline(journal)]


def _trace_analytics(traces: Dict[int, List[Span]], top: int) -> Dict[str, Any]:
    """Self times of every operation and the ``top`` slowest traces'
    critical paths, as data."""
    all_spans = [span for spans in traces.values() for span in spans]
    return {
        "self_times": [asdict(stat) for stat in self_time_breakdown(all_spans)],
        "slowest": [{"trace": trace_id, "duration": duration,
                     "spans": len(spans),
                     "critical_path": [s.name for s in critical_path(spans)]}
                    for trace_id, spans, duration in slowest_traces(traces, k=top)],
    }


_Section = Tuple[str, Callable[[], str], Callable[[], Any]]


def _sections(vo, top: int) -> Iterator[_Section]:
    """The run's report sections in order, as ``(record key, text,
    data)``: the one set of presence rules both views read.

    Sections appear only when their tier was on: node health (the
    journal's crash/restart fold, whenever anything observes), SLO
    budgets + burn-rate alerts + crash detection, metrics tables, and
    trace analytics (self times, critical paths, waterfalls for the
    ``top`` slowest traces).  An empty text or data is left out.
    """
    obs = vo.obs
    if obs.enabled or obs.slo is not None:
        journal, nodes = vo.sim.journal, vo.network.nodes
        yield ("health", partial(render_health, journal, nodes),
               partial(health_to_dict, journal, nodes))
    if obs.slo is not None:
        yield ("slo", partial(render_slo, obs.slo), partial(_slo_rows, obs.slo))
        yield ("alerts", partial(render_alerts, obs.slo),
               partial(_alerts, obs.slo))
        yield ("detection", partial(render_detection, vo.sim.journal),
               partial(_detection_rows, vo.sim.journal))
    if obs.enabled:
        yield ("metrics", partial(render_metrics, obs.metrics),
               partial(metrics_to_dict, obs.metrics))
        traces = obs.tracer.traces()
        if traces:
            yield ("traces", partial(format_trace_analytics, traces, top=top),
                   partial(_trace_analytics, traces, top))


def render_run_report(vo, top: int = 3) -> str:
    """Everything the observability plane knows about one run, as text."""
    sections = [text() for _, text, _ in _sections(vo, top)]
    if not sections:
        return "(observability disabled: nothing to report)"
    return "\n\n".join(filter(None, sections))


def run_record(vo, top: int = 3) -> Dict[str, Any]:
    """The run report as one JSON-friendly record: each section of
    :func:`render_run_report` under its key, plus ``stats``, the
    :func:`repro.stats.collect_metrics` snapshot with its resolution
    breakdown and cache hit rate."""
    from repro.stats import collect_metrics

    record: Dict[str, Any] = {}
    for key, _, data in _sections(vo, top):
        value = data()
        if value:
            record[key] = value
    snapshot = collect_metrics(vo)
    record["stats"] = {**asdict(snapshot),
                       "resolution": snapshot.resolution_breakdown(),
                       "cache_hit_rate": snapshot.cache_hit_rate()}
    return record
