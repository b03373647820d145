"""Streaming stats: fixed footprint, exact totals, commutative merges."""

import pytest

from repro.load.stats import CommutativeDigest, OpStats, StreamStats
from repro.obs.metrics import HISTOGRAM_BOUNDS, Histogram


class TestLatencyDigest:
    def test_fixed_size_state(self):
        digest = Histogram()
        for i in range(50_000):
            digest.observe(1e-5 * (i % 997 + 1))
        assert len(digest.counts) == len(HISTOGRAM_BOUNDS) + 1
        assert digest.count == 50_000

    def test_mean_is_exact_integer_total(self):
        digest = Histogram()
        for value in (0.001, 0.002, 0.003):
            digest.observe(value)
        assert digest.total_ns == 6_000_000
        assert digest.mean == pytest.approx(0.002)

    def test_percentile_matches_obs_histogram(self):
        values = [1e-5 * (i % 313 + 1) * 3.7 for i in range(2_000)]
        digest = Histogram()
        histogram = Histogram("h", {})
        for value in values:
            digest.observe(value)
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99, 0.999):
            assert digest.percentile(q) == histogram.percentile(q)

    def test_min_max_clamping(self):
        digest = Histogram()
        digest.observe(0.5)
        assert digest.p50 == 0.5 == digest.p999
        assert digest.min == digest.max == 0.5

    def test_merge_equals_single_stream(self):
        values = [0.0001 * (i % 41 + 1) for i in range(400)]
        whole = Histogram()
        for value in values:
            whole.observe(value)
        left, right = Histogram(), Histogram()
        for value in values[:137]:
            left.observe(value)
        for value in values[137:]:
            right.observe(value)
        left.merge(right)
        assert left.fingerprint() == whole.fingerprint()
        assert left.mean == whole.mean

    def test_empty_digest_reports_zero(self):
        digest = Histogram()
        assert digest.mean == 0.0
        assert digest.percentile(0.99) == 0.0


class TestCommutativeDigest:
    def test_order_independent(self):
        records = [f"record-{i}" for i in range(200)]
        forward, backward = CommutativeDigest(), CommutativeDigest()
        forward.fold_many(records)
        backward.fold_many(reversed(records))
        assert forward.hexdigest() == backward.hexdigest()

    def test_merge_in_any_shard_split(self):
        records = [f"r{i}" for i in range(90)]
        whole = CommutativeDigest()
        whole.fold_many(records)
        for cut in (1, 30, 89):
            a, b = CommutativeDigest(), CommutativeDigest()
            a.fold_many(records[:cut])
            b.fold_many(records[cut:])
            b.merge(a)  # merge direction must not matter either
            assert b.hexdigest() == whole.hexdigest()

    def test_multiset_sensitive(self):
        a, b = CommutativeDigest(), CommutativeDigest()
        a.fold_many(["x", "y"])
        b.fold_many(["x", "x"])
        assert a.hexdigest() != b.hexdigest()


class TestStreamStats:
    def _populate(self, stats, offset=0):
        for i in range(offset, offset + 60):
            op = ("resolve", "provision", "enact")[i % 3]
            t = 0.5 * i
            if i % 7 == 0:
                stats.shed(op, t)
            elif i % 11 == 0:
                stats.timeout(op, t)
            else:
                stats.ok(op, 0.001 * (i % 9 + 1), t)
            stats.digest.fold(f"{op}|{i}")

    def test_totals_and_windows(self):
        stats = StreamStats(window=5.0)
        self._populate(stats)
        assert stats.offered == 60
        assert stats.completed + stats.shed_total + stats.timeout_total == 60
        series = stats.goodput_series()
        assert series == sorted(series)
        assert all(rate >= 0.0 for _, rate in series)

    def test_merge_order_independent_fingerprint(self):
        whole = StreamStats(window=5.0)
        self._populate(whole, 0)
        self._populate(whole, 60)

        a, b = StreamStats(window=5.0), StreamStats(window=5.0)
        self._populate(a, 0)
        self._populate(b, 60)
        b.merge(a)  # reversed merge order vs serial fill
        assert b.fingerprint() == whole.fingerprint()
        assert b.to_dict() == whole.to_dict()

    def test_merge_rejects_window_mismatch(self):
        with pytest.raises(ValueError):
            StreamStats(window=5.0).merge(StreamStats(window=2.0))

    def test_footprint_independent_of_arrival_count(self):
        small, large = StreamStats(window=5.0), StreamStats(window=5.0)
        for i in range(100):
            small.ok("resolve", 0.001, float(i % 50))
        for i in range(100_000):
            large.ok("resolve", 0.001, float(i % 50))
        assert large.footprint_bytes() == small.footprint_bytes()

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            StreamStats(window=0.0)


class TestOpStats:
    def test_offered_sums_outcomes(self):
        stats = OpStats()
        stats.completed, stats.shed, stats.timeouts, stats.failed = 5, 3, 2, 1
        assert stats.offered == 11
