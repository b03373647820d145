"""Unit tests for SLO specs, the engine, burn rates, alerts and the
detection timeline."""

import pytest

from repro.obs.slo import (
    ATTEMPT,
    CALL,
    DEFAULT_ALERTS,
    BurnRateRule,
    SLOEngine,
    SLOSpec,
    detection_timeline,
)
from repro.simkernel import Simulator


def make_engine(*specs, eval_interval=5.0, now=0.0):
    sim = Simulator(seed=1)
    engine = SLOEngine(specs, eval_interval=eval_interval)
    engine.bind(sim)
    if now:
        sim.run(until=now)
    return sim, engine


class TestSpecs:
    def test_burn_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule("bad", window=0.0, threshold=1.0)
        with pytest.raises(ValueError):
            BurnRateRule("bad", window=30.0, threshold=0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="s", endpoint="a.b", target=1.0)
        with pytest.raises(ValueError):
            SLOSpec(name="s", endpoint="a.b", objective="uptime")
        with pytest.raises(ValueError):
            SLOSpec(name="s", endpoint="a.b", objective="latency")
        with pytest.raises(ValueError):
            SLOSpec(name="s", endpoint="a.b", level="request")

    def test_budget_is_one_minus_target(self):
        assert SLOSpec(name="s", endpoint="a.b", target=0.99).budget == \
            pytest.approx(0.01)

    def test_endpoint_matching(self):
        exact = SLOSpec(name="e", endpoint="glare-rdm.get_deployments")
        assert exact.matches("glare-rdm.get_deployments")
        assert not exact.matches("glare-rdm.sp_lookup")
        family = SLOSpec(name="f", endpoint="glare-rdm.*")
        assert family.matches("glare-rdm.sp_lookup")
        assert not family.matches("glare-adm.install")
        everything = SLOSpec(name="g", endpoint="*")
        assert everything.matches("anything.at_all")

    def test_latency_objective_classifies_by_threshold(self):
        spec = SLOSpec(name="lat", endpoint="a.b", objective="latency",
                       threshold_s=0.5)
        assert spec.classify(True, 0.4)
        assert not spec.classify(True, 0.6)
        assert not spec.classify(False, 0.1)  # failures are never good

    def test_default_alerts_are_fast_and_slow(self):
        names = [rule.name for rule in DEFAULT_ALERTS]
        assert names == ["fast", "slow"]
        fast, slow = DEFAULT_ALERTS
        assert fast.window < slow.window
        assert fast.threshold > slow.threshold


class TestEngineIntake:
    def test_engine_requires_specs(self):
        with pytest.raises(ValueError):
            SLOEngine(())

    def test_engine_rejects_duplicate_names(self):
        spec = SLOSpec(name="dup", endpoint="a.*")
        with pytest.raises(ValueError):
            SLOEngine((spec, spec))

    def test_record_routes_by_level_and_endpoint(self):
        attempt = SLOSpec(name="att", endpoint="svc.*", level=ATTEMPT)
        call = SLOSpec(name="cal", endpoint="svc.op", level=CALL)
        _, engine = make_engine(attempt, call)
        engine.record("svc.op", 0.0, 1.0, ok=True, level=ATTEMPT)
        engine.record("svc.op", 0.0, 1.0, ok=False, level=CALL)
        engine.record("other.op", 0.0, 1.0, ok=False, level=ATTEMPT)
        att = engine.status("att")
        cal = engine.status("cal")
        assert (att.total, att.bad) == (1, 0)
        assert (cal.total, cal.bad) == (1, 1)
        # the other.op event matched no spec
        assert engine.events_recorded == 2

    def test_status_verdicts(self):
        spec = SLOSpec(name="s", endpoint="a.*", target=0.9)
        _, engine = make_engine(spec)
        for i in range(9):
            engine.record("a.b", 0.0, 0.1, ok=True)
        engine.record("a.b", 0.0, 0.1, ok=False)
        status = engine.status("s")
        assert status.good_rate == pytest.approx(0.9)
        assert status.budget_consumed == pytest.approx(1.0)
        assert status.verdict == "met"
        engine.record("a.b", 0.0, 0.1, ok=False)
        assert engine.status("s").verdict == "exhausted"
        assert engine.verdicts() == {"s": "exhausted"}

    def test_unknown_status_name_raises(self):
        _, engine = make_engine(SLOSpec(name="s", endpoint="a.*"))
        with pytest.raises(KeyError):
            engine.status("nope")


class TestBurnRates:
    def test_burn_rate_windows_and_prunes(self):
        spec = SLOSpec(name="s", endpoint="a.*", target=0.9,
                       alerts=(BurnRateRule("fast", 10.0, 1.0),))
        sim, engine = make_engine(spec)
        # 5 bad events at t in [0, 5), 5 good at t in [5, 10)
        for t in range(5):
            engine.record("a.b", float(t), float(t), ok=False)
        for t in range(5, 10):
            engine.record("a.b", float(t), float(t), ok=True)
        sim.run(until=10.0)
        # window (0, 10]: 9 events (t=0 on the cutoff drops), 4 bad
        burn = engine.burn_rate(spec, 10.0, sim.now)
        assert burn == pytest.approx((4 / 9) / 0.1)
        # a later window sees only good events
        sim.run(until=16.0)
        assert engine.burn_rate(spec, 10.0, sim.now) == 0.0

    def test_burn_rate_zero_when_idle(self):
        spec = SLOSpec(name="s", endpoint="a.*")
        sim, engine = make_engine(spec)
        assert engine.burn_rate(spec, 30.0, sim.now) == 0.0

    def test_evaluate_fires_and_resolves(self):
        spec = SLOSpec(name="s", endpoint="a.*", target=0.9,
                       alerts=(BurnRateRule("fast", 10.0, 2.0),))
        sim, engine = make_engine(spec)
        sim.run(until=5.0)
        for _ in range(5):
            engine.record("a.b", sim.now, sim.now, ok=False)
        engine.evaluate()
        assert engine.alerts_fired() == 1
        assert [a["rule"] for a in engine.active_alerts()] == ["fast"]
        # a second tick while still burning must not re-fire
        engine.evaluate()
        assert engine.alerts_fired() == 1
        # after the window slides past the failures the alert resolves
        sim.run(until=20.0)
        engine.evaluate()
        assert engine.active_alerts() == []
        kinds = [e["kind"] for e in engine.alerts()]
        assert kinds == ["fired", "resolved"]

    def test_evaluator_process_runs_on_cadence(self):
        spec = SLOSpec(name="s", endpoint="a.*", target=0.9,
                       alerts=(BurnRateRule("fast", 10.0, 1.0),))
        sim, engine = make_engine(spec, eval_interval=2.0)
        engine.evaluator.start()
        engine.evaluator.start()  # idempotent

        def workload():
            yield sim.timeout(3.0)
            for _ in range(4):
                engine.record("a.b", sim.now, sim.now, ok=False)

        sim.process(workload())
        sim.run(until=11.0)
        assert engine.evaluations == 5
        assert engine.alerts_fired() == 1
        assert engine.alerts()[0]["at"] == pytest.approx(4.0)
        engine.evaluator.stop()
        sim.run(until=20.0)
        assert engine.evaluations == 5  # stopped: no further ticks


@pytest.mark.slow
class TestScenarioDeterminism:
    def test_churn_scenario_alerts_are_deterministic(self):
        from repro.obs.scenarios import run_scenario

        logs = []
        verdicts = []
        for _ in range(2):
            vo = run_scenario("churn")
            engine = vo.obs.slo
            assert engine is not None
            logs.append([(e["kind"], e["slo"], e["rule"], e["at"])
                         for e in engine.alerts()])
            verdicts.append(engine.verdicts())
        assert logs[0] == logs[1]
        assert verdicts[0] == verdicts[1]
        assert logs[0], "the churn scenario must fire at least one alert"

    def test_churn_scenario_journal_interleaves_planes(self):
        from repro.obs.scenarios import run_scenario

        journal = run_scenario("churn").sim.journal
        planes = [e["plane"] for e in journal]
        assert {"faults", "slo"} <= set(planes)
        # one log, not two joined: the planes alternate within it
        assert planes.index("faults") < planes.index("slo") < max(
            i for i, plane in enumerate(planes) if plane == "faults")
        times = [e["at"] for e in journal]
        assert times == sorted(times)

    def test_churn_scenario_narrative(self):
        from repro.obs.scenarios import run_scenario

        vo = run_scenario("churn")
        engine = vo.obs.slo
        # the outage burns the attempt budget; retries save the calls
        assert engine.verdicts() == {"rdm-attempts": "exhausted",
                                     "rdm-calls": "met"}
        records = detection_timeline(vo.sim.journal)
        assert len(records) == 1
        assert records[0].detected
        assert records[0].mttd is not None and records[0].mttd <= 30.0


def crash(site, at, kind="crash"):
    return {"at": at, "plane": "faults", "kind": kind, "site": site}


def alert(kind, at, rule="fast"):
    return {"at": at, "plane": "slo", "kind": kind, "slo": "s", "rule": rule,
            "burn": 2.0}


class TestDetectionTimeline:
    def test_pairs_crashes_with_alerts(self):
        journal = [crash("a", 40.0), alert("fired", 50.0),
                   alert("resolved", 90.0), crash("b", 110.0),
                   alert("fired", 115.0), alert("resolved", 150.0)]
        records = detection_timeline(journal)
        assert [(r.site, r.mttd, r.mttr) for r in records] == [
            ("a", 10.0, 50.0), ("b", 5.0, 40.0),
        ]
        assert all(r.detected for r in records)

    def test_undetected_crash(self):
        records = detection_timeline([crash("a", 40.0)])
        assert records[0].detected_at is None
        assert records[0].mttd is None and records[0].mttr is None
        assert not records[0].detected

    def test_alert_before_crash_is_not_a_detection(self):
        journal = [alert("fired", 10.0), alert("resolved", 20.0),
                   crash("a", 40.0)]
        records = detection_timeline(journal)
        assert not records[0].detected

    def test_recovery_waits_for_all_alerts_to_resolve(self):
        journal = [crash("a", 40.0),
                   alert("fired", 45.0, rule="fast"),
                   alert("fired", 60.0, rule="slow"),
                   alert("resolved", 80.0, rule="fast"),
                   alert("resolved", 95.0, rule="slow")]
        records = detection_timeline(journal)
        # incident closes only when the *last* alert resolves
        assert records[0].mttr == pytest.approx(55.0)

    def test_non_crash_events_are_ignored(self):
        journal = [crash("a", 10.0, kind="restart"), crash("b", 20.0),
                   {"at": 22.0, "plane": "overlay", "kind": "takeover",
                    "site": "c", "missing": "b", "epoch": 2},
                   alert("fired", 25.0)]
        records = detection_timeline(journal)
        assert [(r.site, r.mttd) for r in records] == [("b", 5.0)]
