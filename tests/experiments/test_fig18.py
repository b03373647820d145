"""Fig. 18: open-loop overload must degrade gracefully — goodput
plateaus with admission shedding engaged, it never collapses."""

import pytest

from repro.experiments.fig18 import (
    format_fig18,
    run_fig18_capacity,
    run_fig18_point,
    run_fig18_wave,
)

#: tiny-but-meaningful sweep shape shared by the module fixtures
TINY = dict(seed=41, n_sites=5, n_types=4, horizon=10.0, warmup=2.0)
CAPACITY = 600.0


@pytest.fixture(scope="module")
def nominal_point():
    return run_fig18_point(multiple=1.0, capacity=CAPACITY, **TINY)


@pytest.fixture(scope="module")
def overload_point():
    return run_fig18_point(multiple=3.0, capacity=CAPACITY, **TINY)


class TestCapacityProbe:
    def test_probe_finds_positive_capacity(self):
        capacity = run_fig18_capacity(seed=41, n_sites=5, n_types=4,
                                      clients=16, horizon=6.0, warmup=1.5)
        assert capacity > 0.0
        assert capacity == round(capacity, 1)  # stable table rendering


class TestOverloadSweep:
    def test_nominal_load_is_mostly_served(self, nominal_point):
        assert nominal_point.completed > 0
        assert nominal_point.goodput > 0.0
        measured = (nominal_point.completed + nominal_point.shed
                    + nominal_point.timeouts + nominal_point.failed)
        assert nominal_point.completed >= 0.9 * measured

    def test_overload_sheds_but_goodput_survives(self, nominal_point,
                                                 overload_point):
        assert overload_point.shed > 0
        assert overload_point.shed_rate > nominal_point.shed_rate
        # the plateau: more offered load must not crater completions
        assert overload_point.goodput >= 0.6 * nominal_point.goodput
        assert overload_point.failed == 0

    def test_server_attributes_sheds_per_op(self, overload_point):
        shed_by_op = overload_point.server_shed_by_op
        assert sum(shed_by_op.values()) >= overload_point.shed
        assert all(op in ("get_deployments", "instantiate")
                   for op in shed_by_op)

    def test_latency_profile_degrades_under_overload(self, nominal_point,
                                                     overload_point):
        nominal = nominal_point.per_op["resolve"]
        overload = overload_point.per_op["resolve"]
        assert overload["p99_ms"] >= nominal["p99_ms"]
        assert nominal["p50_ms"] > 0.0

    def test_streaming_footprint_stays_fixed(self, nominal_point,
                                             overload_point):
        # 3x the arrivals, same measurement shape: the histogram grid
        # and window table do not grow with offered load
        assert overload_point.arrivals > 2 * nominal_point.arrivals
        assert (overload_point.stats_footprint_bytes
                <= nominal_point.stats_footprint_bytes * 1.5)

    def test_same_seed_reproduces_digest(self, overload_point):
        again = run_fig18_point(multiple=3.0, capacity=CAPACITY, **TINY)
        assert again.result_digest == overload_point.result_digest
        assert again.server_shed_by_op == overload_point.server_shed_by_op


class TestProvisioningWave:
    def test_wave_installs_everywhere_with_ttr(self):
        wave = run_fig18_wave(seed=41, n_sites=5, n_types=4, span=12.0)
        assert wave.installs == 4 * 5  # every (type, site) pair
        assert wave.statuses.get("installed") == wave.installs
        assert 0.0 < wave.ttr["p50_s"] <= wave.ttr["p99_s"] <= wave.ttr["max_s"]
        assert wave.wave_seconds > 0.0
        again = run_fig18_wave(seed=41, n_sites=5, n_types=4, span=12.0)
        assert again.result_digest == wave.result_digest


@pytest.mark.slow
class TestFig18EndToEnd:
    def test_quick_cli_fans_out_and_degrades_gracefully(self, quick_runs):
        # the full quick experiment: capacity probe, 0.5x-4x sweep with
        # the determinism repeat, flash crowd, wave (its fan-out against
        # this serial run is tests/experiments/test_registry.py's job)
        out = quick_runs["fig18"].text
        assert "offered" in out
        assert "flash" in out.lower()
        assert "wave" in out.lower()


class TestFormatting:
    def test_format_renders_all_sections(self, nominal_point, overload_point):
        from repro.experiments.fig18 import Fig18Flash, Fig18Wave

        flash = Fig18Flash(capacity=CAPACITY, hot_spike_rate=1200.0,
                           phases={"before": {"arrivals": 10, "goodput": 5.0,
                                              "shed": 0, "timeouts": 0,
                                              "hot_completed": 3,
                                              "hot_p99_ms": 1.0,
                                              "bg_p99_ms": 1.0}},
                           result_digest="d" * 64)
        wave = Fig18Wave(installs=4, statuses={"installed": 4},
                         ttr={"p50_s": 9.0, "p90_s": 11.0, "p99_s": 12.0,
                              "max_s": 12.0},
                         wave_seconds=9.0, result_digest="e" * 64)
        text = format_fig18([nominal_point, overload_point], flash, wave)
        assert "offered" in text
        assert "shed" in text.lower()
        assert "wave" in text.lower()
