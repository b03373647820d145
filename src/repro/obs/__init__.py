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
  text rendering (machine-readable JSON/CSV included).

A second *judgement* tier sits on top of the raw streams:

* :mod:`repro.obs.slo` — declarative service-level objectives with
  sliding-window burn-rate alerts and error budgets;
* :mod:`repro.obs.health` — a fault-aware node/service health registry
  plus MTTD/MTTR analytics over fault-event ↔ alert timelines;
* :mod:`repro.obs.analyze` — trace critical paths, self-time
  breakdowns and slowest-trace waterfalls.

One :class:`Observability` instance bundles everything for a VO.  The
default is *disabled*: the null tracer and null instruments reduce
every instrumentation point to one attribute check, no SLO engine or
health registry exists, and benchmarks are unaffected.  Enable with
``build_vo(observability=True)`` (and ``slos=(...)`` for objectives).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.obs.health import HealthRegistry
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
    """Tracer + metrics + SLO/health plane configuration for one VO.

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
        (and installs the pipeline layer that feeds it) even when the
        tracer/metrics switch is off.
    slo_eval_interval:
        Burn-rate evaluation cadence of the SLO engine.
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_interval: float = 5.0,
        max_spans: Optional[int] = None,
        slos: Sequence[SLOSpec] = (),
        slo_eval_interval: float = 5.0,
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
            SLOEngine(slos, eval_interval=slo_eval_interval) if slos else None
        )
        #: health registry (present whenever any observer tier is on)
        self.health: Optional[HealthRegistry] = (
            HealthRegistry() if (enabled or self.slo is not None) else None
        )

    def bind(self, sim: "Simulator") -> None:
        """Attach every tier to a simulator's clock."""
        self.tracer.bind(sim)
        self.metrics.bind(sim)
        if self.slo is not None:
            self.slo.bind(sim)
        if self.health is not None:
            self.health.bind(sim)


def disabled() -> Observability:
    """A fresh disabled instance (default for bare networks)."""
    return Observability(enabled=False)


__all__ = [
    "BurnRateRule",
    "Counter",
    "HISTOGRAM_BOUNDS",
    "HealthRegistry",
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
