"""Kernel odds and ends: trace, peek/step, run(until) semantics."""

import pytest

from repro.simkernel import Simulator, entries
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

    def test_note_stamps_the_clock_and_entries_filters_by_plane(self):
        sim = Simulator()
        sim.note("faults", "crash", site="a")
        sim.run(until=3.0)
        entry = sim.note("slo", "fired", slo="s")
        sim.note("faults", "restart", site="a")
        assert entry == {"at": 3.0, "plane": "slo", "kind": "fired", "slo": "s"}
        assert sim.journal[1] is entry
        assert [e["kind"] for e in entries(sim.journal, "faults")] == [
            "crash", "restart"]
        assert entries(sim.journal, "faults", "restart") == [
            {"at": 3.0, "plane": "faults", "kind": "restart", "site": "a"}]

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


class TestUnobservedEnd:
    """A process nobody waits on ends off the agenda; a failure does not."""

    def returning(self, sim):
        yield sim.timeout(1.0)
        return 42

    def test_a_return_nobody_waits_for_leaves_the_agenda_empty(self):
        sim = Simulator()
        proc = sim.process(self.returning(sim))
        sim.step()  # the first step
        sim.step()  # the timeout: the body returns
        assert sim.peek() == float("inf")
        assert proc.processed and not proc.is_alive and proc.value == 42

    def test_a_failure_nobody_waits_for_still_fails_run(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(1.0)
            raise ValueError("unobserved")

        sim.process(failing())
        with pytest.raises(ValueError, match="unobserved"):
            sim.run()

    def test_every_later_look_sees_the_value(self):
        sim = Simulator()
        proc = sim.process(self.returning(sim))
        sim.run()
        assert sim.run(until=proc) == 42

        def waiter():
            value = yield proc
            both = yield sim.all_of([proc])
            return value, both[proc]

        assert sim.run(until=sim.process(waiter())) == (42, 42)
