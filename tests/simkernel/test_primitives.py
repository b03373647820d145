"""Unit tests for stores and events."""

import pytest

from repro.simkernel import Simulator, Store
from repro.simkernel.errors import EventAlreadyFired


class TestStoreCapacity:
    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        timeline = []

        def producer():
            for index in range(4):
                yield store.put(index)
                timeline.append(("put", index, sim.now))

        def consumer():
            yield sim.timeout(10)
            for _ in range(4):
                item = yield store.get()
                timeline.append(("get", item, sim.now))
                yield sim.timeout(1)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        puts = [entry for entry in timeline if entry[0] == "put"]
        # first two puts immediate; the rest wait for consumption
        assert puts[0][2] == 0 and puts[1][2] == 0
        assert puts[2][2] >= 10
        gets = [entry[1] for entry in timeline if entry[0] == "get"]
        assert gets == [0, 1, 2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Store(Simulator(), capacity=0)


class TestEventSemantics:
    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(EventAlreadyFired):
            event.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_unhandled_failure_crashes_simulation(self):
        sim = Simulator()
        sim.event().fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            sim.run()

    def test_defused_failure_is_silent(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("ignored"))
        event.defused = True
        sim.run()  # no raise

    def test_trigger_copies_outcome(self):
        sim = Simulator()
        source, target = sim.event(), sim.event()
        source.succeed("payload")
        target.trigger(source)
        sim.run()
        assert target.ok and target.value == "payload"

    def test_yield_non_event_kills_process(self):
        sim = Simulator()

        def bad():
            yield "not an event"

        proc = sim.process(bad())
        with pytest.raises(RuntimeError, match="non-event"):
            sim.run(until=proc)

    def test_timeout_value_passthrough(self):
        sim = Simulator()
        out = []

        def run():
            value = yield sim.timeout(1, value="tick")
            out.append(value)

        sim.process(run())
        sim.run()
        assert out == ["tick"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)
