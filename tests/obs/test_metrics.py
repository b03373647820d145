"""Unit tests for counters, histograms, gauge series, and the recorder."""

import pytest

from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRecorder,
    MetricsRegistry,
)
from repro.vo import build_vo


class TestCounter:
    def test_inc_and_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("rpc.calls", endpoint="x.y")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # same (name, labels) -> same instrument
        assert registry.counter("rpc.calls", endpoint="x.y") is counter
        # different labels -> different instrument
        assert registry.counter("rpc.calls", endpoint="z").value == 0

    def test_iteration_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        assert [c.name for c in registry.counters()] == ["a", "b"]


class TestHistogram:
    def test_bounds_are_log_scale(self):
        assert HISTOGRAM_BOUNDS[0] == pytest.approx(1e-5)
        ratios = [b / a for a, b in zip(HISTOGRAM_BOUNDS, HISTOGRAM_BOUNDS[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_percentiles_ordered_and_bracketing(self):
        h = Histogram("lat", ())
        for millis in range(1, 101):  # 1ms .. 100ms uniform
            h.observe(millis / 1000.0)
        assert h.count == 100
        assert h.mean == pytest.approx(0.0505)
        assert 0.0 < h.p50 <= h.p95 <= h.p99 <= h.max
        # p50 of a 1..100ms uniform must land near the middle bucket
        assert 0.02 <= h.p50 <= 0.1
        assert h.p99 >= 0.05

    def test_single_observation_clamps_to_value(self):
        h = Histogram("lat", ())
        h.observe(0.42)
        assert h.p50 == pytest.approx(0.42)
        assert h.p99 == pytest.approx(0.42)
        assert h.mean == pytest.approx(0.42)

    def test_empty_histogram_is_zero(self):
        h = Histogram("lat", ())
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(0.5) == 0.0

    def test_overflow_bucket_returns_max(self):
        h = Histogram("lat", ())
        huge = HISTOGRAM_BOUNDS[-1] * 10
        h.observe(huge)
        assert h.p99 == pytest.approx(huge)


class TestTimeSeries:
    def test_record_and_stats(self):
        registry = MetricsRegistry()
        series = registry.series("site.load", site="agrid00")
        series.record(0.0, 1.0)
        series.record(5.0, 3.0)
        assert series.last == 3.0
        assert series.values() == [1.0, 3.0]
        assert series.stats() == (1.0, 2.0, 3.0)

    def test_empty_series_stats(self):
        registry = MetricsRegistry()
        assert registry.series("x").stats() == (0.0, 0.0, 0.0)
        assert registry.series("x").last == 0.0


class TestDisabledRegistry:
    def test_null_instruments_swallow_everything(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(5)
        registry.histogram("h").observe(1.0)
        registry.sample("g", 2.0, site="s")
        assert list(registry.counters()) == []
        assert list(registry.histograms()) == []
        assert list(registry.all_series()) == []
        assert registry.counter("c").value == 0
        assert registry.histogram("h").p99 == 0.0


class TestMetricsRecorder:
    def test_interval_must_be_positive(self):
        vo = build_vo(n_sites=1, seed=9, monitors=False)
        with pytest.raises(ValueError):
            MetricsRecorder(vo, interval=0)

    def test_recorder_samples_site_gauges(self):
        vo = build_vo(n_sites=2, seed=9, monitors=False,
                      observability=True, sample_interval=1.0)
        vo.sim.run(until=10.0)
        recorder = vo.obs.recorder
        assert recorder is not None and recorder.samples_taken >= 9
        series = {s.name for s in vo.obs.metrics.all_series()}
        assert {"site.load", "site.run_queue", "site.inflight_rpcs",
                "site.mds_busy_workers", "site.atr_cache",
                "site.adr_cache"} <= series
        load = vo.obs.metrics.series("site.load", site="agrid00")
        assert len(load.samples) == recorder.samples_taken
        times = [t for t, _ in load.samples]
        assert times == sorted(times)

    def test_stop_halts_sampling(self):
        vo = build_vo(n_sites=1, seed=9, monitors=False,
                      observability=True, sample_interval=1.0)
        vo.sim.run(until=3.0)
        recorder = vo.obs.recorder
        taken = recorder.samples_taken
        recorder.stop()
        vo.sim.run(until=10.0)
        assert recorder.samples_taken == taken


class TestRecorderUnderFaults:
    """Gauge sampling across a FaultPlane crash/restart cycle."""

    @staticmethod
    def _run_crashed_vo():
        from repro.faults import CrashSpec, FaultsConfig

        vo = build_vo(n_sites=2, seed=9, monitors=False,
                      observability=True, sample_interval=1.0,
                      faults=FaultsConfig(crashes=(
                          CrashSpec("agrid01", at=5.0, down_for=10.0),)))
        vo.sim.run(until=25.0)
        return vo

    def test_offline_node_leaves_a_gap_in_its_series(self):
        vo = self._run_crashed_vo()
        load = vo.obs.metrics.series("site.load", site="agrid01")
        times = [t for t, _ in load.samples]
        # no samples inside the outage window [5, 15) — the recorder
        # skips offline nodes, which is how dashboards see the crash
        assert times, "the victim must have samples outside the outage"
        assert not [t for t in times if 5.0 <= t < 15.0]
        assert [t for t in times if t < 5.0]
        assert [t for t in times if t >= 15.0]

    def test_survivor_keeps_a_gapless_series(self):
        vo = self._run_crashed_vo()
        survivor = vo.obs.metrics.series("site.load", site="agrid00")
        times = [t for t, _ in survivor.samples]
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert deltas and all(d == pytest.approx(1.0) for d in deltas)

    def test_sampling_is_deterministic_across_crash_restart(self):
        samples = []
        for _ in range(2):
            vo = self._run_crashed_vo()
            samples.append({
                (s.name, s.labels): list(s.samples)
                for s in vo.obs.metrics.all_series()
            })
        assert samples[0] == samples[1]
