"""Regression tests for the kernel fast path.

Covers the behaviours the wall-clock optimisation work must not bend:
``Event.trigger`` error reporting, lazy-cancellation (tombstone)
unsubscribe semantics, Timeout free-list recycling safety, and seeded
run-to-run determinism of the trace log.
"""

import pytest

from repro.simkernel import Interrupt, Simulator
from repro.simkernel.errors import EventAlreadyFired, SimulationError
from repro.simkernel.events import Event, Timeout
from repro.simkernel.kernel import _POOL_LIMIT


class TestTrigger:
    def test_trigger_copies_success(self):
        sim = Simulator()
        src = Event(sim).succeed("payload")
        dst = Event(sim)
        dst.trigger(src)
        assert dst.triggered and dst.ok
        assert dst.value == "payload"

    def test_trigger_copies_failure(self):
        sim = Simulator()
        boom = RuntimeError("boom")
        src = Event(sim).fail(boom)
        src.defused = True
        dst = Event(sim)
        dst.trigger(src)
        dst.defused = True
        assert dst.triggered and not dst.ok
        assert dst.value is boom

    def test_trigger_from_untriggered_raises_simulation_error(self):
        # Regression: this used to die inside succeed()/fail() with a
        # confusing downstream error instead of naming the real mistake.
        sim = Simulator()
        src = Event(sim, name="src")
        dst = Event(sim, name="dst")
        with pytest.raises(SimulationError, match="untriggered"):
            dst.trigger(src)
        # dst must be untouched — still usable afterwards
        assert not dst.triggered
        dst.succeed(1)

    def test_trigger_onto_already_triggered_still_rejected(self):
        sim = Simulator()
        src = Event(sim).succeed(1)
        dst = Event(sim).succeed(2)
        with pytest.raises(EventAlreadyFired):
            dst.trigger(src)


class TestUnsubscribeTombstones:
    def test_unsubscribed_callback_not_called(self):
        sim = Simulator()
        event = Event(sim)
        calls = []
        event.subscribe(lambda e: calls.append("kept"))
        dropped = lambda e: calls.append("dropped")  # noqa: E731
        event.subscribe(dropped)
        event.unsubscribe(dropped)
        event.succeed()
        sim.run()
        assert calls == ["kept"]

    def test_unsubscribe_leaves_tombstone_not_shift(self):
        sim = Simulator()
        event = Event(sim)
        cb = lambda e: None  # noqa: E731
        event.subscribe(cb)
        event.unsubscribe(cb)
        # lazy cancellation: the slot is tombstoned, not removed
        assert event.callbacks == [None]

    def test_one_unsubscribe_cancels_one_registration(self):
        # Documented semantics: a callback subscribed twice keeps its
        # second registration until unsubscribed again.
        sim = Simulator()
        event = Event(sim)
        calls = []
        cb = lambda e: calls.append(1)  # noqa: E731
        event.subscribe(cb)
        event.subscribe(cb)
        event.unsubscribe(cb)
        event.succeed()
        sim.run()
        assert calls == [1]

    def test_unsubscribe_absent_callback_is_noop(self):
        sim = Simulator()
        event = Event(sim)
        event.unsubscribe(lambda e: None)  # must not raise
        assert event.callbacks == []

    def test_unsubscribe_after_processed_is_noop(self):
        sim = Simulator()
        event = Event(sim).succeed()
        sim.run()
        assert event.processed
        event.unsubscribe(lambda e: None)  # callbacks is None now

    def test_interrupt_mid_wait_skips_other_waiters_correctly(self):
        # An interrupt unsubscribes the victim from its wait target;
        # other processes waiting on the same event must still resume.
        sim = Simulator()
        gate = Event(sim)
        log = []

        def victim():
            try:
                yield gate
                log.append("victim-resumed")
            except Interrupt as exc:
                log.append(f"victim-interrupted:{exc.cause}")

        def bystander():
            yield gate
            log.append("bystander-resumed")

        target = sim.process(victim())
        sim.process(bystander())

        def attacker():
            yield sim.timeout(1.0)
            target.interrupt("now")
            yield sim.timeout(1.0)
            gate.succeed()

        sim.process(attacker())
        sim.run()
        assert "victim-interrupted:now" in log
        assert "bystander-resumed" in log
        assert "victim-resumed" not in log


class TestTimeoutPooling:
    def test_recycled_timeouts_do_not_leak_values(self):
        # Drive enough churn that pooled Timeout objects get reused,
        # and check every delivered value is the one yielded.
        sim = Simulator()
        seen = []

        def proc(tag):
            for i in range(200):
                got = yield sim.timeout(0.01, value=(tag, i))
                seen.append(got)

        for tag in range(4):
            sim.process(proc(tag), name=f"p{tag}")
        sim.run()
        assert len(seen) == 800
        for tag in range(4):
            assert [v for v in seen if v[0] == tag] == [(tag, i) for i in range(200)]

    def test_referenced_timeout_is_not_recycled(self):
        sim = Simulator()
        held = []

        def holder():
            t = sim.timeout(0.5, value="mine")
            held.append(t)
            yield t
            # churn more timeouts; the held one must keep its state
            for _ in range(50):
                yield sim.timeout(0.1)

        sim.process(holder())
        sim.run()
        (t,) = held
        assert t.processed
        assert t.value == "mine"

    def test_pool_is_bounded(self):
        sim = Simulator()

        def churn():
            for _ in range(3 * _POOL_LIMIT):
                yield sim.timeout(0.001)

        sim.process(churn())
        sim.run()
        assert len(sim._timeout_pool) <= _POOL_LIMIT

    def test_negative_delay_rejected_even_with_pool(self):
        sim = Simulator()

        def churn():
            for _ in range(10):
                yield sim.timeout(0.001)

        sim.process(churn())
        sim.run()
        assert sim._timeout_pool  # recycled instances available
        with pytest.raises(ValueError, match="negative"):
            sim.timeout(-1.0)

    def test_pooled_timeout_type_and_fresh_state(self):
        sim = Simulator()

        def churn():
            # every one of these is pooled once dispatched, the final
            # one too: a terminated process lets go of its wait target
            for _ in range(5):
                yield sim.timeout(0.1, value="old")

        sim.process(churn())
        sim.run()
        assert sim._timeout_pool
        t = sim.timeout(0.2, value="new")
        assert type(t) is Timeout
        assert not t.processed
        assert t.callbacks == []
        assert t.delay == 0.2
        assert t._value == "new"
        assert not t.defused

    def test_the_timeout_a_process_ends_on_is_pooled(self):
        """One pooled timeout per terminated process, and a dead process
        never reads as waiting on a recycled one."""
        sim = Simulator()

        def one_wait():
            yield sim.timeout(1.0)

        procs = [sim.process(one_wait()) for _ in range(5)]
        sim.run()
        assert len(sim._timeout_pool) == 5
        assert not any(proc.is_alive or proc.is_waiting for proc in procs)
        sim.timeout(2.0)  # hands out a pooled instance
        assert not any(proc.is_waiting for proc in procs)


class TestSeededDeterminism:
    def _trace(self, seed):
        from repro.perf import _mixed_kernel_scenario

        sim = _mixed_kernel_scenario(seed)
        return sim.now, list(sim.trace_log)

    def test_same_seed_identical_trace(self):
        from repro.perf import kernel_trace_fingerprint

        first = kernel_trace_fingerprint(seed=5)
        second = kernel_trace_fingerprint(seed=5)
        assert first == second
        # and the raw (time, label) pairs agree apart from object ids
        now_a, trace_a = self._trace(9)
        now_b, trace_b = self._trace(9)
        assert now_a == now_b
        assert [t for t, _ in trace_a] == [t for t, _ in trace_b]
        assert len(trace_a) == len(trace_b)

    def test_traced_and_untraced_runs_agree_on_time(self):
        def workload(sim):
            def proc():
                for i in range(100):
                    yield sim.timeout(0.013 * (1 + i % 3))

            sim.process(proc())
            sim.run()
            return sim.now

        assert workload(Simulator(seed=2)) == workload(Simulator(seed=2, trace=True))
