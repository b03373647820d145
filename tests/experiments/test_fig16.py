"""Fig. 16: retries + overlay takeover must keep the VO serving
through super-peer churn that visibly degrades the fragile baseline."""

import pytest

from repro.experiments.fig16 import (
    EXPERIMENT,
    format_fig16,
    format_fig16_slo,
    run_fig16_point,
)


@pytest.fixture(scope="module")
def quick_pair(quick_runs):
    # the session's one quick run of the experiment: the churn pair
    results = quick_runs["fig16"].results
    return results["fig16:fragile"], results["fig16:resilient"]


class TestFig16Pair:
    def test_resilient_series_stays_available(self, quick_pair):
        fragile, resilient = quick_pair
        assert resilient.resolution_success_rate >= 0.95
        assert resilient.provision_success_rate >= 0.95

    def test_fragile_series_visibly_degrades(self, quick_pair):
        fragile, resilient = quick_pair
        assert fragile.resolution_failures > 0
        assert fragile.resolution_success_rate < resilient.resolution_success_rate
        assert fragile.provision_success_rate < resilient.provision_success_rate

    def test_takeovers_only_with_the_detector_on(self, quick_pair):
        fragile, resilient = quick_pair
        assert resilient.reelections >= 1
        assert fragile.reelections == 0
        assert resilient.crashes == fragile.crashes > 0

    def test_retries_engaged_and_recovery_measured(self, quick_pair):
        fragile, resilient = quick_pair
        assert resilient.retries > 0
        assert len(resilient.recovery_times) == resilient.reelections
        assert all(t > 0.0 for t in resilient.recovery_times)

    def test_same_seed_reproduces_digest(self, quick_pair):
        _, resilient = quick_pair
        again = run_fig16_point(resilient=True, **EXPERIMENT.quick["churn"])
        assert again.result_digest == resilient.result_digest
        assert again.recovery_times == resilient.recovery_times

    def test_format_reports_both_series(self, quick_pair):
        text = format_fig16(list(quick_pair))
        assert "fragile" in text
        assert "resilient" in text
        assert "re-elections" in text
        assert "takeover" in text


@pytest.fixture(scope="module")
def slo_pair(quick_runs):
    results = quick_runs["fig16"].results
    return results["fig16:slo:fragile"], results["fig16:slo:resilient"]


@pytest.mark.slow
class TestFig16SLO:
    def test_every_crash_is_detected_in_both_series(self, slo_pair):
        for point in slo_pair:
            assert point.crashes > 0
            assert point.undetected_crashes == 0
            assert len(point.detection_latencies) == point.crashes
            assert point.alerts_fired >= point.crashes

    def test_detection_beats_the_fast_window(self, slo_pair):
        # the fast burn-rate rule looks back 30s, so MTTD must land
        # within one window plus one evaluation tick
        for point in slo_pair:
            assert all(0.0 < t <= 35.0 for t in point.detection_latencies)
            assert all(t > 0.0 for t in point.repair_times)

    def test_error_budget_verdicts_separate_the_series(self, slo_pair):
        fragile, resilient = slo_pair
        # without takeover the client-visible SLO burns out; retries +
        # re-election keep the resilient client inside its budget
        assert fragile.slo_verdicts["client-availability"] == "exhausted"
        assert resilient.slo_verdicts["client-availability"] == "met"
        # the server-side attempt stream sees the crashes either way
        assert resilient.slo_verdicts["rdm-attempt-availability"] == "exhausted"

    def test_rendered_report_carries_every_plane(self, slo_pair):
        for point in slo_pair:
            assert "fig16 SLO extension" in point.report
            assert "Service-level objectives" in point.report
            assert "Burn-rate alerts" in point.report
            assert "VO health" in point.report

    def test_detection_is_deterministic(self, slo_pair):
        # a fresh run of either series agrees with the session's on
        # digest, MTTD and MTTR — what the declared repeat enforces
        kwargs = EXPERIMENT.quick["slo"]
        fragile = run_fig16_point(resilient=False, **kwargs)
        resilient = run_fig16_point(resilient=True, **kwargs)
        assert resilient.detection_latencies == slo_pair[1].detection_latencies
        assert resilient.repair_times == slo_pair[1].repair_times
        assert EXPERIMENT.digest(resilient) == EXPERIMENT.digest(slo_pair[1])
        assert fragile.result_digest == slo_pair[0].result_digest

    def test_format_reports_detection_columns(self, slo_pair):
        text = format_fig16_slo(*slo_pair)
        assert "mean-MTTD-s" in text and "mean-MTTR-s" in text
        assert "fragile" in text and "resilient" in text
        assert "exhausted" in text and "met" in text
