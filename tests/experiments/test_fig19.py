"""Fig. 19: desired-state orchestration under a flash crowd.

Tiny-but-meaningful shapes of the fig19 driver: the orchestrated
series must scale out, recover goodput, and drain back to min
replicas; the static twin of the same seeded workload must not move;
double runs must be digest-identical.
"""

import pytest

from repro.experiments.fig19 import (
    EXPERIMENT,
    Fig19Flash,
    HOT_TYPE,
    format_fig19,
    run_fig19_flash,
)

#: the quick-mode shape, as the experiment declares it
TINY = dict(EXPERIMENT.quick, seed=43)


@pytest.fixture(scope="module")
def orchestrated():
    return run_fig19_flash(orchestrated=True, **TINY)


@pytest.fixture(scope="module")
def static():
    return run_fig19_flash(orchestrated=False, **TINY)


class TestOrchestratedSeries:
    def test_scales_out_within_bounds(self, orchestrated):
        assert orchestrated.max_replicas_seen >= 2
        assert orchestrated.max_replicas_seen <= TINY["max_replicas"]
        assert orchestrated.installs >= 1

    def test_drains_back_to_min_replicas(self, orchestrated):
        assert orchestrated.final_replicas == 1
        assert orchestrated.drains >= 1
        # the series ends lower than its peak: scale-in actually ran
        peak = max(n for _, n in orchestrated.replica_series)
        assert orchestrated.replica_series[-1][1] < peak

    def test_goodput_recovers_to_pre_spike_plateau(self, orchestrated):
        phases = orchestrated.phases
        assert phases["recovered"]["goodput"] >= phases["before"]["goodput"]
        assert phases["recovered"]["hot_goodput"] > 0

    def test_convergence_times_recorded(self, orchestrated):
        assert orchestrated.convergence_times
        assert all(t > 0 for t in orchestrated.convergence_times)
        assert orchestrated.reconcile_rounds > len(
            orchestrated.convergence_times
        )

    def test_same_seed_reproduces_digest(self, orchestrated):
        again = run_fig19_flash(orchestrated=True, **TINY)
        assert again.result_digest == orchestrated.result_digest
        assert again.replica_series == orchestrated.replica_series


class TestStaticSeries:
    def test_replica_count_never_moves(self, static):
        assert static.max_replicas_seen == 1
        assert static.final_replicas == 1
        assert static.installs == 0
        assert static.drains == 0
        assert static.reconcile_rounds == 0

    def test_orchestration_beats_static_on_hot_goodput(self, orchestrated,
                                                       static):
        orch = orchestrated.phases["recovered"]["hot_goodput"]
        base = static.phases["recovered"]["hot_goodput"]
        assert orch >= 1.2 * base

    def test_series_digests_differ(self, orchestrated, static):
        assert orchestrated.result_digest != static.result_digest


@pytest.mark.slow
class TestFig19EndToEnd:
    def test_quick_cli_fans_out_and_asserts(self, quick_runs):
        out = quick_runs["fig19"].text
        assert "orchestrated" in out
        assert "replica trajectory" in out
        assert "convergence" in out


class TestFormatting:
    def test_format_renders_both_series(self):
        flash = Fig19Flash(
            orchestrated=True, spike_rate=400.0,
            phases={"before": {"arrivals": 10, "goodput": 5.0,
                               "hot_goodput": 2.0, "hot_shed": 0,
                               "hot_p99_ms": 1.0}},
            replica_series=[(0.0, 1), (8.0, 3), (30.0, 1)],
            max_replicas_seen=3, final_replicas=1, reconcile_rounds=9,
            installs=2, drains=2, convergence_times=[4.0],
            result_digest="a" * 64,
        )
        static = Fig19Flash(
            orchestrated=False, spike_rate=400.0,
            phases={"before": {"arrivals": 10, "goodput": 5.0,
                               "hot_goodput": 2.0, "hot_shed": 0,
                               "hot_p99_ms": 1.0}},
            replica_series=[(0.0, 1)], max_replicas_seen=1,
            final_replicas=1, result_digest="b" * 64,
        )
        text = format_fig19(flash, static)
        assert HOT_TYPE not in text  # the table speaks in series terms
        assert "orchestrated" in text
        assert "static" in text
        assert "1@0s" in text and "3@8s" in text
