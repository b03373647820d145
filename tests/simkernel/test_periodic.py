"""``Periodic``: the one background-loop primitive and its stop contract."""

import math

import pytest

from repro.simkernel import Interrupt, Simulator
from repro.simkernel.primitives import Periodic


def ticking(sim, interval=5.0, **kwargs):
    """A started loop whose plain tick logs the clock."""
    ticks = []
    loop = Periodic(sim, interval, lambda: ticks.append(sim.now), "loop", **kwargs)
    loop.start()
    return loop, ticks


class TestRounds:
    def test_waits_then_ticks(self):
        sim = Simulator()
        _loop, ticks = ticking(sim)
        sim.run(until=16.0)
        assert ticks == [5.0, 10.0, 15.0]

    def test_tick_first_ticks_then_waits(self):
        sim = Simulator()
        _loop, ticks = ticking(sim, tick_first=True)
        sim.run(until=11.0)
        assert ticks == [0.0, 5.0, 10.0]

    def test_phase_offsets_the_first_round_only(self):
        sim = Simulator()
        _loop, ticks = ticking(sim, phase=2.0)
        sim.run(until=13.0)
        assert ticks == [7.0, 12.0]

    def test_phase_with_tick_first(self):
        sim = Simulator()
        _loop, ticks = ticking(sim, phase=2.0, tick_first=True)
        sim.run(until=8.0)
        assert ticks == [2.0, 7.0]

    def test_interval_assigned_later_counts_from_the_next_wait(self):
        sim = Simulator()
        loop, ticks = ticking(sim)
        sim.run(until=6.0)
        loop.interval = 1.0
        sim.run(until=12.5)
        assert ticks == [5.0, 10.0, 11.0, 12.0]

    def test_generator_tick_is_run_to_completion(self):
        sim = Simulator()
        ticks = []

        def tick():
            yield sim.timeout(1.0)
            ticks.append(sim.now)

        Periodic(sim, 5.0, tick, "loop").start()
        sim.run(until=13.0)
        assert ticks == [6.0, 12.0]  # the next wait starts when the tick ends

    def test_plain_tick_returning_an_iterable_is_not_delegated_to(self):
        sim = Simulator()
        calls = []

        def tick():
            calls.append(sim.now)
            return [sim.timeout(100.0)]  # ``yield from`` would park on it

        Periodic(sim, 5.0, tick, "loop").start()
        sim.run(until=11.0)
        assert calls == [5.0, 10.0]

    def test_bound_generator_method_is_recognised(self):
        sim = Simulator()

        class Owner:
            ticks = 0

            def tick(self):
                yield sim.timeout(0.5)
                self.ticks += 1

        owner = Owner()
        Periodic(sim, 5.0, owner.tick, "loop").start()
        sim.run(until=6.0)
        assert owner.ticks == 1

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="loop: interval must be positive"):
            Periodic(Simulator(), 0.0, lambda: None, "loop")

    def test_a_failing_tick_surfaces_and_ends_the_loop(self):
        sim = Simulator()

        def tick():
            raise TypeError("bad tick")

        loop = Periodic(sim, 5.0, tick, "loop")
        loop.start()
        with pytest.raises(TypeError, match="bad tick"):
            sim.run(until=6.0)
        assert not loop.running
        assert math.isinf(sim.peek())


class TestStop:
    def test_stop_mid_wait_leaves_nothing_on_the_agenda(self):
        sim = Simulator()
        loop, ticks = ticking(sim)
        sim.run(until=7.0)
        assert sim.peek() == 10.0
        loop.stop()
        assert not loop.running
        sim.run()  # delivers the interrupt; the parked wait is withdrawn
        assert math.isinf(sim.peek())
        assert sim.now == 7.0
        assert ticks == [5.0]

    def test_stop_mid_tick_interrupts_the_tick(self):
        sim = Simulator()
        log = []

        def tick():
            log.append(("begin", sim.now))
            yield sim.timeout(3.0)
            log.append(("end", sim.now))

        loop = Periodic(sim, 5.0, tick, "loop")
        loop.start()
        sim.run(until=6.0)
        loop.stop()
        sim.run()  # only the tick's own abandoned timeout is left to lapse
        assert log == [("begin", 5.0)]
        assert not loop.running
        assert math.isinf(sim.peek())

    def test_stop_from_inside_the_tick_ends_the_loop_after_it(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            loop.stop()  # a process cannot interrupt itself
            assert not loop.running
            yield sim.timeout(1.0)
            ticks.append(sim.now)  # the tick itself still finishes

        loop = Periodic(sim, 5.0, tick, "loop")
        loop.start()
        sim.run()
        assert ticks == [5.0, 6.0]
        assert sim.now == 6.0  # no further wait was scheduled

    def test_a_tick_that_swallows_the_interrupt_still_ends_the_loop(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            try:
                yield sim.timeout(3.0)
            except Interrupt:
                pass

        loop = Periodic(sim, 5.0, tick, "loop")
        loop.start()
        sim.run(until=6.0)
        loop.stop()
        sim.run(until=100.0)
        assert ticks == [5.0]
        assert not loop.running
        assert math.isinf(sim.peek())

    def test_start_and_stop_are_idempotent(self):
        sim = Simulator()
        loop, ticks = ticking(sim)
        loop.start()
        loop.start()
        sim.run(until=6.0)
        assert ticks == [5.0]  # one loop, not three
        loop.stop()
        loop.stop()
        sim.run()
        assert math.isinf(sim.peek())

    def test_stop_before_start_is_a_noop(self):
        sim = Simulator()
        loop = Periodic(sim, 5.0, lambda: None, "loop")
        loop.stop()
        assert not loop.running
        assert math.isinf(sim.peek())

    def test_stop_before_the_first_step_leaves_nothing(self):
        sim = Simulator()
        loop, ticks = ticking(sim, tick_first=True)
        loop.stop()  # same instant: the process has not begun
        sim.run()
        assert ticks == []
        assert sim.now == 0.0 and math.isinf(sim.peek())

    def test_stop_then_start_restarts_with_one_live_process(self):
        sim = Simulator()
        loop, ticks = ticking(sim)
        sim.run(until=7.0)
        loop.stop()
        loop.start()  # before the old process saw its interrupt
        assert loop.running
        sim.run(until=18.0)
        assert ticks == [5.0, 12.0, 17.0]  # a fresh wait from t=7, one loop
        loop.stop()
        sim.run()
        assert math.isinf(sim.peek())

    def test_restart_from_inside_the_tick_replaces_the_loop(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 1:
                loop.stop()
                loop.interval = 2.0
                loop.start()

        loop = Periodic(sim, 5.0, tick, "loop")
        loop.start()
        sim.run(until=10.0)
        assert ticks == [5.0, 7.0, 9.0]
