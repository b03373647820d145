"""Traffic mix assignment and open-loop driver outcome classification."""

import numpy as np
import pytest

from repro.load.mixer import OpenLoopDriver, TrafficMix
from repro.load.stats import StreamStats
from repro.net.interceptors import Overloaded, RemoteError, RpcTimeout
from repro.simkernel import Simulator


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


class _FakeVO:
    def __init__(self):
        self.sim = _FakeSim()


def _outcome_call(error):
    def make_call(op, index):
        if error is not None:
            raise error
        if False:  # pragma: no cover - generator shape
            yield
        return "ok"

    return make_call


class TestOpenLoopDriver:
    @pytest.mark.parametrize("error,field", [
        (None, "completed"),
        (Overloaded("shed"), "shed"),
        (RpcTimeout("deadline"), "timeouts"),
        (RemoteError("boom"), "failed"),
    ])
    def test_outcome_classification(self, error, field):
        stats = StreamStats(window=5.0)
        driver = OpenLoopDriver(_FakeVO(), stats)
        driver.fire("resolve", 1.0, 0, _outcome_call(error))
        assert getattr(stats.ops["resolve"], field) == 1
        assert stats.offered == 1
        assert stats.digest.n == 1

    def test_warmup_arrivals_run_but_are_not_measured(self):
        stats = StreamStats(window=5.0)
        driver = OpenLoopDriver(_FakeVO(), stats, warmup=10.0)
        driver.fire("resolve", 9.9, 0, _outcome_call(None))
        driver.fire("resolve", 10.0, 1, _outcome_call(None))
        assert driver.spawned == 2
        assert stats.offered == 1  # only the post-warmup arrival counted
        assert stats.digest.n == 1

    def test_a_bug_in_make_call_fails_the_run(self):
        """Only what a client can be told books a failed row; a
        ``TypeError`` inside ``make_call`` is a bug and propagates."""
        vo = _FakeVO()
        vo.sim = Simulator(seed=1)
        stats = StreamStats(window=5.0)
        OpenLoopDriver(vo, stats).fire(
            "resolve", 0.0, 0, _outcome_call(TypeError("bad call")))
        with pytest.raises(TypeError, match="bad call"):
            vo.sim.run()
        assert "resolve" not in stats.ops and stats.digest.n == 0

    def test_single_attempt_policy(self):
        """A request is one attempt with ``request_timeout`` as its deadline."""
        sent = []

        class Net:
            def call(self, *args, **kwargs):
                sent.append(kwargs)
                yield from ()

        vo = _FakeVO()
        vo.network = Net()
        driver = OpenLoopDriver(vo, StreamStats(), request_timeout=4.0)
        list(driver.call("A", "B", "resolve", None, service="svc"))
        assert sent == [{"payload": None, "timeout": 4.0}]
