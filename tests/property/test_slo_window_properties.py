"""Property test: the bisected SLO windows equal the brute-force scan.

``SLOEngine.burn_rate`` used to walk every event of the window per rule
per tick; it now bisects time-ordered arrays carrying a cumulative bad
count.  The old scan lives on here as the reference, and random event
sequences — on a coarse time grid, so events land exactly on window
cutoffs and prune horizons — must give the same burn rates, totals and
alert log entry for entry.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import BurnRateRule, SLOEngine, SLOSpec
from repro.simkernel import Simulator

RULES = (BurnRateRule("fast", window=2.0, threshold=2.0),
         BurnRateRule("slow", window=5.0, threshold=1.0))
SPECS = (
    SLOSpec(name="avail", endpoint="svc.*", target=0.9, alerts=RULES),
    SLOSpec(name="quick", endpoint="svc.op", objective="latency",
            target=0.8, threshold_s=0.25, alerts=RULES[:1]),
)
#: probed windows: the rules', one inside, one past the prune horizon
WINDOWS = (0.5, 2.0, 5.0, 9.0)


class ReferenceWindow:
    """The pre-bisect implementation: a deque of ``(ended, good)``, scanned."""

    def __init__(self, spec):
        self.spec = spec
        self.events = deque()
        self.horizon = max(rule.window for rule in spec.alerts)

    def record(self, started, ended, ok):
        self.events.append((ended, self.spec.classify(ok, ended - started)))

    def prune(self, now):
        cutoff = now - self.horizon
        while self.events and self.events[0][0] <= cutoff:
            self.events.popleft()

    def burn_rate(self, window, now):
        cutoff = now - window
        total = bad = 0
        for ended, good in reversed(self.events):
            if ended <= cutoff:
                break
            total += 1
            if not good:
                bad += 1
        if not total or not bad:
            return 0.0
        return (bad / total) / self.spec.budget


steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),     # clock advance, in 0.5 s ticks
        st.integers(min_value=0, max_value=4),     # events recorded at that time
        st.booleans(),                             # ok?
        st.sampled_from([0.0, 0.25, 0.5]),         # latency (0.25 = the limit)
        st.booleans(),                             # run an evaluation tick here?
    ),
    min_size=1, max_size=60,
)


@given(steps=steps)
@settings(max_examples=200, deadline=None)
def test_bisected_windows_match_the_brute_force_scan(steps):
    sim = Simulator(seed=1)
    engine = SLOEngine(SPECS)
    engine.bind(sim)
    reference = {spec.name: ReferenceWindow(spec) for spec in SPECS}
    expected_log, active = [], set()

    for advance, count, ok, latency, tick in steps:
        sim.run(until=sim.now + 0.5 * advance)
        now = sim.now
        for _ in range(count):
            engine.record("svc.op", now - latency, now, ok)
            for window in reference.values():
                window.record(now - latency, now, ok)
        if tick:
            engine.evaluate()
            for spec in SPECS:  # the reference's own evaluate()
                window = reference[spec.name]
                window.prune(now)
                for rule in spec.alerts:
                    burn = window.burn_rate(rule.window, now)
                    key = (spec.name, rule.name)
                    if burn >= rule.threshold and key not in active:
                        active.add(key)
                        expected_log.append(("fired", *key, now, burn))
                    elif burn < rule.threshold and key in active:
                        active.discard(key)
                        expected_log.append(("resolved", *key, now, burn))
        for spec in SPECS:
            for window in WINDOWS:
                assert (engine.burn_rate(spec, window, now)
                        == reference[spec.name].burn_rate(window, now))

    assert [(e["kind"], e["slo"], e["rule"], e["at"], e["burn"])
            for e in engine.alert_log] == expected_log
    for spec in SPECS:
        status = engine.status(spec.name)
        assert status.total == sum(step[1] for step in steps)
        assert len(engine._windows[spec.name].ended) == len(reference[spec.name].events)
