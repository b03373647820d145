"""Traffic mix assignment and open-loop driver outcome classification."""

import numpy as np
import pytest

from repro.experiments.workload import register_served_type
from repro.faults import FaultsConfig, ServiceErrorRule
from repro.glare.rdm import RDM_SERVICE
from repro.invariants import audit
from repro.load.inject import CohortInjector
from repro.load.mixer import OpenLoopDriver, TrafficMix
from repro.load.stats import StreamStats
from repro.net.interceptors import Overloaded, RemoteError, RpcTimeout
from repro.simkernel import Simulator
from repro.vo import build_vo


class TestTrafficMix:
    def test_deterministic_assignment(self):
        mix = TrafficMix({"resolve": 0.9, "provision": 0.06, "enact": 0.04})
        assert np.array_equal(mix.assign(5_000, 3), mix.assign(5_000, 3))
        assert not np.array_equal(mix.assign(5_000, 3), mix.assign(5_000, 4))

    def test_ops_sorted_and_weights_normalized(self):
        mix = TrafficMix({"b": 2.0, "a": 6.0, "c": 2.0})
        assert mix.ops == ("a", "b", "c")
        assert mix.weights == pytest.approx((0.6, 0.2, 0.2))

    def test_assignment_tracks_weights(self):
        mix = TrafficMix({"resolve": 0.9, "enact": 0.1})
        assignment = mix.assign(20_000, 7)
        resolve_share = np.mean(assignment == mix.ops.index("resolve"))
        assert resolve_share == pytest.approx(0.9, abs=0.02)

    def test_rejects_empty_or_zero_weights(self):
        with pytest.raises(ValueError):
            TrafficMix({})
        with pytest.raises(ValueError):
            TrafficMix({"a": 0.0})


class _FakeSim:
    """Drives the driver's request generator to completion inline."""

    def __init__(self):
        self.now = 0.0

    def process(self, generator):
        try:
            while True:
                next(generator)
        except StopIteration:
            pass


class _FakeNetwork:
    """A network whose every call ends with ``error``, or answers."""

    def __init__(self, error=None, sim=None):
        self.sim = sim or _FakeSim()
        self.planes, self.stopped, self.error, self.sent = [], False, error, []

    def call(self, *args, **kwargs):
        self.sent.append((args, kwargs))
        if self.error is not None:
            raise self.error
        yield from ()
        return "ok"


def _call(op, index):
    return "A", "B", "get_deployments", {"type": op}


class TestOpenLoopDriver:
    @pytest.mark.parametrize("error,field", [
        (None, "completed"),
        (Overloaded("shed"), "shed"),
        (RpcTimeout("deadline"), "timeouts"),
        (RemoteError("boom"), "failed"),
    ])
    def test_outcome_classification(self, error, field):
        stats = StreamStats(window=5.0)
        driver = OpenLoopDriver(_FakeNetwork(error), stats)
        driver.fire("resolve", 1.0, 0, _call)
        assert getattr(stats.ops["resolve"], field) == 1
        assert stats.offered == 1
        assert stats.digest.n == 1

    def test_warmup_arrivals_run_but_are_not_measured(self):
        stats = StreamStats(window=5.0)
        driver = OpenLoopDriver(_FakeNetwork(), stats, warmup=10.0)
        driver.fire("resolve", 9.9, 0, _call)
        driver.fire("resolve", 10.0, 1, _call)
        assert driver.spawned == 2
        assert stats.offered == 1  # only the post-warmup arrival counted
        assert stats.digest.n == 1

    def test_a_bug_in_make_call_fails_the_run(self):
        """Only what a client can be told books a failed row; a
        ``TypeError`` inside ``make_call`` is a bug and propagates."""
        def make_call(op, index):
            raise TypeError("bad call")

        stats = StreamStats(window=5.0)
        network = _FakeNetwork(sim=Simulator(seed=1))
        OpenLoopDriver(network, stats).fire("resolve", 0.0, 0, make_call)
        with pytest.raises(TypeError, match="bad call"):
            network.sim.run()
        assert "resolve" not in stats.ops and stats.digest.n == 0

    def test_single_attempt_policy(self):
        """A request is one attempt with ``request_timeout`` as its deadline."""
        network = _FakeNetwork()
        OpenLoopDriver(network, StreamStats(), request_timeout=4.0).fire(
            "resolve", 0.0, 0, _call)
        assert network.sent == [(("A", "B", RDM_SERVICE, "get_deployments"),
                                 {"payload": {"type": "resolve"}, "timeout": 4.0})]


class _DropsFailures(StreamStats):
    """A mutant whose ``fail`` branch books nothing."""

    def fail(self, op, t):
        pass


class _DropsSheds(StreamStats):
    """A mutant whose ``shed`` branch books nothing."""

    def shed(self, op, t):
        pass


class TestRequestsConserved:
    """The audit holds a driver to one outcome per measured arrival."""

    def drive(self, stats, **config):
        """Forty resolutions from agrid02 to agrid01 in one burst, on a
        VO built with ``config``; the audit mid-run and after a drain."""
        vo = build_vo(n_sites=3, seed=47, monitors=False, lifecycle=False, **config)
        register_served_type(vo, "agrid01", "Served", "load")
        driver = OpenLoopDriver(vo.network, stats, request_timeout=4.0,
                                warmup=vo.sim.now)
        assert vo.network.planes == [driver]

        def make_call(op, index):
            return "agrid02", "agrid01", "get_deployments", {
                "type": "Served", "auto_deploy": False}

        times = vo.sim.now + np.linspace(0.01, 0.05, 40)
        CohortInjector(vo.sim, times, lambda t, i: driver.fire(
            "resolve", t, i, make_call), tick=0.01).start()
        vo.sim.run(until=vo.sim.now + 0.03)
        running = audit(vo.network)
        vo.network.stop()
        vo.sim.run(until=vo.sim.now + 3600.0)
        return driver, running, audit(vo.network)

    FAULTED = dict(faults=FaultsConfig(service_errors=(
        ServiceErrorRule(RDM_SERVICE, rate=0.5, method="get_deployments"),)))
    SHEDDING = dict(admission_limit=2)

    @pytest.mark.parametrize("config, outcome", [(FAULTED, "failed"),
                                                 (SHEDDING, "shed")],
                             ids=["faulted", "shedding"])
    def test_the_real_driver_conserves_every_arrival(self, config, outcome):
        stats = StreamStats(window=5.0)
        driver, running, stopped = self.drive(stats, **config)
        assert running == [] and stopped == []
        assert driver.measured == stats.offered == 40
        assert getattr(stats.ops["resolve"], outcome) > 0

    @pytest.mark.parametrize("stats_class, config", [(_DropsFailures, FAULTED),
                                                     (_DropsSheds, SHEDDING)],
                             ids=["fail-dropped", "shed-dropped"])
    def test_a_dropped_outcome_breaks_requests_conserved(self, stats_class, config):
        driver, _, stopped = self.drive(stats_class(window=5.0), **config)
        assert [(v.plane, v.clause) for v in stopped] == [
            ("open-loop", "requests-conserved")]
        assert driver.stats.offered < driver.measured == 40
