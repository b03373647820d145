"""Simulation-time observability: tracing, metrics, export.

The paper evaluates GLARE entirely through observed behaviour —
throughput curves (Figs 10–11), per-stage overhead breakdowns
(Table 1), response-time tiers (Fig 12) and load averages (Fig 13) —
so this package gives the reproduction the operator-grade lens those
measurements imply:

* :mod:`repro.obs.trace` — hierarchical spans with trace-context
  propagation across RPC and process boundaries;
* :mod:`repro.obs.metrics` — counters, log-scale latency histograms
  (p50/p95/p99) and gauge time series sampled by a recorder process;
* :mod:`repro.obs.export` — JSONL / Chrome trace-event export and
  the run report behind ``repro report``, the one observability
  command: text (:func:`~repro.obs.export.render_run_report`) or one
  JSON record (:func:`~repro.obs.export.run_record`).

A second *judgement* tier sits on top of the raw streams:

* :mod:`repro.obs.slo` — declarative service-level objectives with
  sliding-window burn-rate alerts and error budgets, plus MTTD/MTTR
  analytics over the journal's crashes and alerts;
* :mod:`repro.obs.analyze` — trace critical paths, self-time
  breakdowns and slowest-trace waterfalls.

One :class:`Observability` instance bundles everything for a VO.  The
default is *disabled*: the null tracer and null instruments reduce
every instrumentation point to one attribute check, no SLO engine
exists, and benchmarks are unaffected.  Node health is no tier of its
own: the run report folds it from the fault plane's journal entries.
Enable with ``build_vo(observability=True)``, or pass a built instance —
``build_vo(observability=Observability(slos=(...)))`` for objectives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Counter,
    Histogram,
    MetricsRecorder,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.slo import BurnRateRule, SLOEngine, SLOSpec
from repro.obs.trace import NullTracer, Span, TraceContext, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator


class Observability:
    """Tracer + metrics + SLO plane configuration for one VO.

    Parameters
    ----------
    enabled:
        Master switch.  A disabled instance records no spans, counters
        or series (:func:`repro.stats.collect_metrics` needs none).
    sample_interval:
        Gauge sampling period of the :class:`MetricsRecorder` process.
    max_spans:
        Optional retention bound on finished spans (ring buffer).
    slos:
        Declarative :class:`~repro.obs.slo.SLOSpec` objectives.  A
        non-empty tuple builds an :class:`~repro.obs.slo.SLOEngine`
        (which the network's transport stage then feeds) even when the
        tracer/metrics switch is off.
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_interval: float = 5.0,
        max_spans: Optional[int] = None,
        slos: Sequence[SLOSpec] = (),
    ) -> None:
        self.enabled = enabled
        self.sample_interval = sample_interval
        self.tracer: Union[Tracer, NullTracer] = (
            Tracer(max_spans=max_spans) if enabled else NullTracer()
        )
        self.metrics = MetricsRegistry(enabled=enabled)
        #: set by :func:`repro.vo.build_vo` when enabled
        self.recorder: Optional[MetricsRecorder] = None
        #: burn-rate engine (``None`` unless objectives are configured)
        self.slo: Optional[SLOEngine] = (
            SLOEngine(slos) if slos else None
        )

    def bind(self, sim: "Simulator") -> None:
        """Attach every tier to a simulator's clock."""
        self.tracer.bind(sim)
        self.metrics.bind(sim)
        if self.slo is not None:
            self.slo.bind(sim)


def disabled() -> Observability:
    """A fresh disabled instance (default for bare networks)."""
    return Observability(enabled=False)


__all__ = [
    "BurnRateRule",
    "Counter",
    "HISTOGRAM_BOUNDS",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "NullTracer",
    "Observability",
    "SLOEngine",
    "SLOSpec",
    "Span",
    "TimeSeries",
    "TraceContext",
    "Tracer",
    "disabled",
]
