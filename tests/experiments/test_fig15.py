"""Fig. 15: the parallel/replica rollout must cut simulated wall-clock
without changing what gets installed where."""

import copy

import pytest

from repro import perf
from repro.experiments.fig15 import format_fig15, run_fig15_point


@pytest.fixture(scope="module")
def small_pair():
    base = run_fig15_point(8, optimized=False)
    opt = run_fig15_point(8, optimized=True)
    return base, opt


class TestFig15Point:
    def test_optimizations_preserve_deployment_sets(self, small_pair):
        base, opt = small_pair
        assert base.installed == opt.installed == base.n_sites
        assert base.failed == opt.failed == 0
        assert base.result_digest == opt.result_digest

    def test_optimizations_cut_rollout_wallclock(self, small_pair):
        base, opt = small_pair
        assert opt.rollout_elapsed < base.rollout_elapsed

    def test_baseline_never_uses_the_scaled_path(self, small_pair):
        base, _ = small_pair
        assert base.replica_hits == 0
        assert base.url_singleflight_joined == 0
        assert base.probe_cache_hits == 0

    def test_replicas_relieve_the_origin(self, small_pair):
        base, opt = small_pair
        assert opt.origin_bytes_out <= base.origin_bytes_out

    def test_format_reports_ratio_and_equality(self, small_pair):
        text = format_fig15(list(small_pair))
        assert "results ==" in text
        assert "speedup" in text
        assert "parallel+replica" in text

    @pytest.mark.slow
    def test_32_sites_meets_3x_speedup(self):
        """The acceptance bar: >=3x faster rollout at 32 sites."""
        base = run_fig15_point(32, optimized=False)
        opt = run_fig15_point(32, optimized=True)
        assert base.result_digest == opt.result_digest
        assert base.rollout_elapsed / opt.rollout_elapsed >= 3.0
        assert opt.replica_hits > 0


class TestProvisioningHarness:
    """In-process repeatability and the speedup gate's wording; the
    generic gate machinery is covered for every suite at once in
    ``tests/test_perf_harness.py``."""

    def test_fingerprint_is_deterministic(self, quick_suites):
        _results, sections = perf.SUITES["provisioning"].run(True)
        assert sections["fingerprint"] == quick_suites["provisioning"]["fingerprint"]

    def test_baseline_roundtrip_and_drift_detection(self, quick_suites):
        suite = quick_suites["provisioning"]
        assert perf.compare("provisioning", suite, suite) == []
        tampered = copy.deepcopy(suite)
        tampered["results"]["provisioning"]["details"]["rollout_speedup"] = 1.0
        tampered["fingerprint"]["optimized_result_digest"] = "deadbeef"
        failures = perf.compare("provisioning", tampered, suite)
        assert any("rollout_speedup" in f and "below" in f for f in failures)
        assert any("optimized_result_digest drifted" in f for f in failures)
