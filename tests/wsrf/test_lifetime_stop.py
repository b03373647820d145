"""Regression tests: a stopped LifetimeManager holds no agenda entry.

``stop()`` used to interrupt the sweep loop but leave its pending
``timeout(interval)`` on the agenda until the tick lapsed — a drained
VO (e.g. after orchestration scale-in) kept one standing event per
stopped sweeper.  ``stop()`` now cancels the pending timeout outright
and is idempotent.

That contract is ``simkernel.primitives.Periodic``'s now, shared by
every background loop: ``tests/simkernel/test_periodic.py`` covers the
primitive and ``tests/test_background_loops.py`` runs the same three
lines against all ten owners (this manager is one row).  These cases
stay as the sweeper's own regression: a stopped manager sweeps no more,
a restarted one does.
"""

import math

from repro.simkernel import Simulator
from repro.wsrf import LifetimeManager, ResourceHome

from tests.wsrf.test_resources import make_resource


def drained_manager(interval=5.0, until=12.0):
    sim = Simulator()
    home = ResourceHome()
    home.add(make_resource("eternal"))
    manager = LifetimeManager(sim, interval=interval)
    manager.watch(home)
    manager.start()
    sim.run(until=until)
    return sim, manager


class TestStopAgendaHygiene:
    def test_agenda_empty_after_stop(self):
        sim, manager = drained_manager()
        # mid-interval: the next sweep tick is scheduled in the future
        assert not math.isinf(sim.peek())
        manager.stop()
        sim.run()  # deliver the interrupt; nothing else may remain
        assert math.isinf(sim.peek())

    def test_stop_is_idempotent(self):
        sim, manager = drained_manager()
        manager.stop()
        manager.stop()
        manager.stop()
        sim.run()
        assert math.isinf(sim.peek())

    def test_stop_before_start_is_a_noop(self):
        sim = Simulator()
        manager = LifetimeManager(sim, interval=1.0)
        manager.stop()
        assert math.isinf(sim.peek())

    def test_stopped_manager_sweeps_no_more(self):
        sim, manager = drained_manager(interval=2.0, until=3.0)
        home = manager._homes[0][0]
        doomed = home.add(make_resource("doomed"))
        doomed.set_termination_time(sim.now + 0.5)
        manager.stop()
        sim.run(until=sim.now + 50.0)
        # the resource expired but nobody swept it
        assert manager.expired_total == 0
        assert home.lookup("doomed") is doomed

    def test_restartable_after_stop(self):
        sim, manager = drained_manager(interval=2.0, until=3.0)
        manager.stop()
        sim.run()
        manager.start()  # a fresh sweep loop may be launched
        home = manager._homes[0][0]
        doomed = home.add(make_resource("doomed"))
        doomed.set_termination_time(sim.now + 0.5)
        sim.run(until=sim.now + 5.0)
        assert manager.expired_total == 1
