"""Kernel odds and ends: trace, peek/step, run(until) semantics."""

import pytest

from repro.simkernel import Simulator
from repro.simkernel.errors import Interrupt, SimulationError, StopProcess
from repro.simkernel.kernel import EmptySchedule


class TestRunSemantics:
    def test_run_until_time_stops_exactly(self):
        sim = Simulator()
        fired = []

        def waiter():
            yield sim.timeout(5)
            fired.append("early")
            yield sim.timeout(10)
            fired.append("late")

        sim.process(waiter())
        sim.run(until=7.0)
        assert fired == ["early"]
        assert sim.now == 7.0
        sim.run(until=20.0)
        assert fired == ["early", "late"]

    def test_run_until_past_time_rejected(self):
        sim = Simulator()
        sim.run(until=10)
        with pytest.raises(ValueError):
            sim.run(until=5)

    def test_run_until_event_already_processed(self):
        sim = Simulator()
        event = sim.timeout(1, value="x")
        sim.run()
        assert sim.run(until=event) == "x"

    def test_peek_and_step(self):
        sim = Simulator()
        sim.timeout(3)
        sim.timeout(1)
        assert sim.peek() == 1.0
        sim.step()
        assert sim.now == 1.0
        assert sim.peek() == 3.0
        sim.step()
        with pytest.raises(EmptySchedule):
            sim.step()
        assert sim.peek() == float("inf")

    def test_trace_log_records_events(self):
        sim = Simulator(trace=True)

        def proc():
            yield sim.timeout(2)

        sim.process(proc())
        sim.run()
        assert sim.trace_log
        times = [t for t, _ in sim.trace_log]
        assert times == sorted(times)

    def test_trace_limit_keeps_most_recent_entries(self):
        sim = Simulator(trace=True, trace_limit=5)

        def ticker():
            for _ in range(20):
                yield sim.timeout(1)

        sim.process(ticker())
        sim.run()
        assert len(sim.trace_log) == 5
        times = [t for t, _ in sim.trace_log]
        assert times == sorted(times)
        # the ring keeps the newest entries, so the last dispatch is there
        assert times[-1] == sim.now

    def test_trace_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulator(trace=True, trace_limit=0)

    def test_unlimited_trace_log_is_plain_list(self):
        sim = Simulator(trace=True)
        assert isinstance(sim.trace_log, list)

    def test_stop_process_exception(self):
        sim = Simulator()

        def deep():
            yield sim.timeout(1)
            raise StopProcess("early-value")

        proc = sim.process(deep())
        assert sim.run(until=proc) == "early-value"


class TestInterruptEdges:
    def test_is_waiting_only_while_parked(self):
        sim = Simulator()
        seen = []

        def body():
            seen.append(sim.active_process.is_waiting)  # first step
            yield sim.timeout(1)
            seen.append(sim.active_process.is_waiting)  # stepping again
            yield sim.timeout(5)

        proc = sim.process(body())
        assert not proc.is_waiting  # not begun
        sim.run(until=0.5)
        assert proc.is_waiting
        sim.run(until=2)
        proc.interrupt("stop")
        assert not proc.is_waiting  # the interrupt is queued
        with pytest.raises(Interrupt):
            sim.run()
        assert seen == [False, False] and not proc.is_waiting  # terminated

    def test_interrupt_dead_process_rejected(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError, match="dead process"):
            proc.interrupt()

    def test_self_interrupt_rejected(self):
        sim = Simulator()
        caught = []

        def selfish():
            me = sim.active_process
            try:
                me.interrupt("myself")
            except SimulationError as error:
                caught.append(str(error))
            yield sim.timeout(1)

        sim.process(selfish())
        sim.run()
        assert caught and "cannot interrupt itself" in caught[0]

    def test_interrupt_detaches_from_wait_target(self):
        """After an interrupt, the old wait target firing is harmless."""
        sim = Simulator()
        states = []

        def victim():
            try:
                yield sim.timeout(10)
                states.append("finished-wait")
            except Interrupt:
                states.append("interrupted")
                yield sim.timeout(100)
                states.append("resumed")

        proc = sim.process(victim())

        def attacker():
            yield sim.timeout(1)
            proc.interrupt()

        sim.process(attacker())
        sim.run()
        # the original timeout at t=10 did not wake the victim again
        assert states == ["interrupted", "resumed"]

    def test_interrupt_cause_carried(self):
        sim = Simulator()
        causes = []

        def victim():
            try:
                yield sim.timeout(50)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

        proc = sim.process(victim())

        def attacker():
            yield sim.timeout(1)
            proc.interrupt({"reason": "test"})

        sim.process(attacker())
        sim.run()
        assert causes == [{"reason": "test"}]
