"""Time-series metrics: counters, gauges, log-scale latency histograms.

The :class:`MetricsRegistry` is the single sink every instrumented
subsystem writes to.  Three instrument families:

* :class:`Counter` — monotonic event counts (RPC calls, cache hits);
* :class:`Histogram` — latency distributions over fixed log-scale
  buckets with approximate percentiles, mergeable shard by shard — the
  one such accumulator in the tree (``repro.load``'s streaming stats and
  the experiments' closed-loop clients hold unregistered instances);
* :class:`TimeSeries` — gauge samples over simulated time, fed by the
  :class:`MetricsRecorder` process (per-site load average, run-queue
  depth, MDS worker-pool occupancy, cache sizes, in-flight requests).

When disabled, ``counter()``/``histogram()``/``series()`` hand back a
shared null instrument whose mutators are no-ops.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.simkernel.primitives import Periodic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator
    from repro.vo import VirtualOrganization

#: label sets are canonicalised to sorted tuples for keying
LabelKey = Tuple[Tuple[str, str], ...]

#: fixed log-scale histogram bucket upper bounds: 10 us doubling up to
#: ~87,000 s (34 buckets), plus an implicit overflow bucket
HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(1e-5 * 2.0 ** i for i in range(34))

_NS_PER_SECOND = 1_000_000_000


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """The one log-bucket accumulator: fixed size, mergeable, exact.

    Bucket ``i`` counts observations ``v <= HISTOGRAM_BOUNDS[i]`` (and
    above the previous bound); one overflow bucket catches the rest.
    Percentiles are approximate: the answer is the upper bound of the
    bucket where the cumulative count crosses the requested quantile,
    clamped to the observed min/max so tiny samples stay sensible.

    Two totals, each pinned by an output that must not move: ``total``
    is the float sum in observation order — ``ClientStats.mean_response``
    (``BENCH_kernel.json`` pins the ``repr`` of fig10's means) and the
    ``mean`` the metrics export writes divide it; ``total_ns`` is the
    integer-nanosecond sum — integer addition is exact and commutative,
    so :attr:`mean` and :meth:`fingerprint` (behind every
    ``StreamStats.fingerprint``) are identical however shards are merged.
    """

    __slots__ = ("name", "labels", "counts", "count", "total", "total_ns",
                 "min", "max")

    def __init__(self, name: str = "", labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.total_ns = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(HISTOGRAM_BOUNDS, value)] += 1
        self.count += 1
        self.total += value
        self.total_ns += round(value * _NS_PER_SECOND)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.total_ns += other.total_ns
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total_ns / self.count / _NS_PER_SECOND

    def percentile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 < q <= 1``) in seconds."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:  # reached: target <= count
                break
        if index >= len(HISTOGRAM_BOUNDS):  # overflow bucket
            return self.max
        return min(max(HISTOGRAM_BOUNDS[index], self.min), self.max)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        return self.percentile(0.999)

    def fingerprint(self) -> str:
        """Merge-order-independent digest of the full histogram state."""
        payload = "|".join(
            (
                str(self.count),
                str(self.total_ns),
                repr(self.min),
                repr(self.max),
                ",".join(str(c) for c in self.counts),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean * 1000.0,
            "p50_ms": self.p50 * 1000.0,
            "p90_ms": self.p90 * 1000.0,
            "p99_ms": self.p99 * 1000.0,
            "p999_ms": self.p999 * 1000.0,
            "max_ms": (self.max if self.count else 0.0) * 1000.0,
        }


class TimeSeries:
    """Gauge samples over simulated time."""

    __slots__ = ("name", "labels", "samples")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.samples: List[Tuple[float, float]] = []

    def record(self, t: float, value: float) -> None:
        self.samples.append((t, value))

    @property
    def last(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def stats(self) -> Tuple[float, float, float]:
        """(min, mean, max) over the sampled values."""
        values = self.values()
        if not values:
            return (0.0, 0.0, 0.0)
        return (min(values), sum(values) / len(values), max(values))


class _NullInstrument:
    """Shared mutator sink for a disabled registry."""

    __slots__ = ()
    name = ""
    labels: LabelKey = ()
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    p50 = p95 = p99 = 0.0
    samples: List[Tuple[float, float]] = []
    last = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def record(self, t: float, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """All instruments of one VO, keyed by ``(name, labels)``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._sim: Optional["Simulator"] = None
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._series: Dict[Tuple[str, LabelKey], TimeSeries] = {}
        #: first-level memo in front of the canonical tables, keyed on
        #: the labels exactly as a call site passes them (insertion
        #: order, raw values): a site that asks again pays one probe
        self._counter_memo: Dict[tuple, Counter] = {}
        self._histogram_memo: Dict[tuple, Histogram] = {}

    def bind(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # -- instrument access --------------------------------------------------

    def _resolve(self, table: Dict, family, name: str, labels: Dict[str, Any]):
        """The instrument under the canonical key, created on first use."""
        key = (name, _label_key(labels))
        instrument = table.get(key)
        if instrument is None:
            instrument = table[key] = family(name, key[1])
        return instrument

    def counter(self, name: str, **labels: Any):
        if not self.enabled:
            return _NULL_INSTRUMENT
        memo_key = (name, tuple(labels.items()))
        instrument = self._counter_memo.get(memo_key)
        if instrument is None:
            instrument = self._counter_memo[memo_key] = self._resolve(
                self._counters, Counter, name, labels)
        return instrument

    def histogram(self, name: str, **labels: Any):
        if not self.enabled:
            return _NULL_INSTRUMENT
        memo_key = (name, tuple(labels.items()))
        instrument = self._histogram_memo.get(memo_key)
        if instrument is None:
            instrument = self._histogram_memo[memo_key] = self._resolve(
                self._histograms, Histogram, name, labels)
        return instrument

    def series(self, name: str, **labels: Any):
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self._resolve(self._series, TimeSeries, name, labels)

    def sample(self, name: str, value: float, **labels: Any) -> None:
        """Record one gauge sample at the current simulated time."""
        if self.enabled:
            self.series(name, **labels).record(self.now, value)

    # -- iteration (for rendering/export) -----------------------------------

    def counters(self) -> Iterator[Counter]:
        return iter(sorted(self._counters.values(),
                           key=lambda c: (c.name, c.labels)))

    def histograms(self) -> Iterator[Histogram]:
        return iter(sorted(self._histograms.values(),
                           key=lambda h: (h.name, h.labels)))

    def all_series(self) -> Iterator[TimeSeries]:
        return iter(sorted(self._series.values(),
                           key=lambda s: (s.name, s.labels)))


class MetricsRecorder(Periodic):
    """A simulation process sampling per-site gauges on an interval.

    Samples, per member site: the 1-minute load average, the CPU
    run-queue depth, instantaneous core utilization (busy slots over
    capacity — the gauge the capacity planner scales on), MDS query
    worker-pool occupancy, registry cache sizes, and RPCs currently in
    flight on the node.  Series names are ``site.load``,
    ``site.run_queue``, ``site.utilization``, ``site.mds_busy_workers``,
    ``site.atr_cache``, ``site.adr_cache``, ``site.inflight_rpcs``,
    each labelled with ``site=<name>``.
    """

    def __init__(self, vo: "VirtualOrganization", interval: float = 5.0) -> None:
        super().__init__(vo.sim, interval, self.sample_once, "metrics-recorder")
        self.vo = vo
        self.registry = vo.obs.metrics
        self.samples_taken = 0

    def sample_once(self) -> None:
        """Take one sample of every gauge right now.

        Offline nodes (crashed by the fault plane) are skipped, so an
        outage shows up as a *gap* in that site's series — exactly how
        a scrape-based monitoring stack sees a dead target.
        """
        registry = self.registry
        for name, stack in self.vo.stacks.items():
            runtime = self.vo.network.node(name)
            if not runtime.online:
                continue
            registry.sample("site.load", stack.site.loadavg.value, site=name)
            registry.sample("site.run_queue",
                            runtime.cpu.run_queue_length, site=name)
            registry.sample("site.utilization",
                            runtime.cpu.running / runtime.cpu.cores, site=name)
            registry.sample("site.inflight_rpcs",
                            runtime.inflight_rpcs, site=name)
            if stack.index is not None:
                registry.sample("site.mds_busy_workers",
                                stack.index.busy_workers, site=name)
            if stack.atr is not None:
                registry.sample("site.atr_cache", len(stack.atr.cache),
                                site=name)
            if stack.adr is not None:
                registry.sample("site.adr_cache",
                                len(stack.adr.cached_deployments), site=name)
        self.samples_taken += 1
