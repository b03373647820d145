"""SingleFlight: one leader per key, followers share its outcome."""

from repro.simkernel import Simulator
from repro.simkernel.errors import Interrupt
from repro.simkernel.primitives import SingleFlight


def start(sim, flights, key, lead, log):
    """A caller process logging ``(name, led, ok, value)`` or its error."""
    def caller(name):
        try:
            led, ok, value = yield from flights.run(key, lead)
            log.append((name, led, ok, value))
        except (RuntimeError, Interrupt) as error:
            log.append((name, type(error).__name__))
    return lambda name: sim.process(caller(name), name=name)


def test_followers_share_the_leaders_value():
    sim, log, runs = Simulator(seed=1), [], []
    flights = SingleFlight(sim)

    def lead():
        runs.append(sim.now)
        yield sim.timeout(5.0)
        return "payload"

    spawn = start(sim, flights, "k", lead, log)
    for name in ("a", "b", "c"):
        spawn(name)
    sim.run()
    assert runs == [0.0]  # the work ran once
    assert log == [("a", True, True, "payload"),
                   ("b", False, True, "payload"),
                   ("c", False, True, "payload")]
    assert flights.in_flight == {}


def test_failed_leader_raises_only_in_the_leader():
    sim, log = Simulator(seed=1), []
    flights = SingleFlight(sim)

    def lead():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    spawn = start(sim, flights, "k", lead, log)
    spawn("leader")
    spawn("follower")
    sim.run()
    assert sorted(log) == [("follower", False, False, None),
                           ("leader", "RuntimeError")]
    assert flights.in_flight == {}


def test_distinct_keys_do_not_coalesce():
    sim, log, runs = Simulator(seed=1), [], []
    flights = SingleFlight(sim)

    def lead_for(key):
        def lead():
            runs.append(key)
            yield sim.timeout(1.0)
            return key
        return lead

    for key in ("x", ("x", 1)):
        start(sim, flights, key, lead_for(key), log)(str(key))
    sim.run()
    assert runs == ["x", ("x", 1)]
    assert all(led for _, led, _, _ in log)


def test_interrupted_leader_releases_its_followers():
    sim, log = Simulator(seed=1), []
    flights = SingleFlight(sim)

    def lead():
        yield sim.timeout(100.0)
        return "never"

    spawn = start(sim, flights, "k", lead, log)
    leader = spawn("leader")
    spawn("follower")
    sim.run(until=1.0)
    leader.interrupt("deadline")
    sim.run()
    assert sorted(log) == [("follower", False, False, None),
                           ("leader", "Interrupt")]
    assert flights.in_flight == {}


def test_sequential_runs_each_lead():
    sim, log = Simulator(seed=1), []
    flights = SingleFlight(sim)

    def lead():
        yield sim.timeout(1.0)
        return sim.now

    def twice():
        for _ in range(2):
            log.append((yield from flights.run("k", lead)))

    sim.process(twice())
    sim.run()
    assert log == [(True, True, 1.0), (True, True, 2.0)]
