"""Reconciler tests against a scripted fake actuator — no VO, no RPC.

The policy/mechanism split exists exactly so the control loop can be
unit-tested like this: the fake actuator plays back per-round gauge
reports and records every actuation, and the tests assert on the
loop's decisions (spec replication, scale-out, damped scale-in,
draining bookkeeping, convergence tracking, shutdown hygiene).
"""

import math

import pytest

from repro.orchestrate.actuator import Actuator
from repro.orchestrate.reconciler import DRAIN_GRACE, INTERVAL, Reconciler
from repro.orchestrate.spec import DeploymentSpec
from repro.simkernel import Simulator, entries


class FakeRdm:
    def __init__(self, sim):
        self.sim = sim


class ScriptedActuator(Actuator):
    """Plays back a list of per-round site reports; records actuations.

    ``script`` is a list of rounds; each round maps site name -> the
    ``report_observed`` wire dict (``None`` = unreachable).  The last
    round repeats forever.  Installs immediately add a deployment to
    subsequent reports; drains remove it (the fake "sweeps" instantly
    at the drain deadline).
    """

    def __init__(self, script):
        self.script = script
        self.round = 0
        self.installed = []   # (type, site)
        self.drained = []     # (site, key, when)
        self.applied = []     # DesiredState documents
        self._extra = {}      # site -> {type: [keys]} added by installs
        self._removed = set() # keys drained

    def _current(self):
        index = min(self.round, len(self.script) - 1)
        return self.script[index]

    def sites(self):
        return sorted(self._current())
        yield  # pragma: no cover - generator marker

    def probe(self, names):
        return {}
        yield  # pragma: no cover - generator marker

    def observe(self, site, types):
        report = self._current().get(site)
        if report is None:
            return None
            yield  # pragma: no cover
        report = dict(report)
        deployments = {t: list(keys)
                       for t, keys in report.get("deployments", {}).items()}
        for type_name, keys in self._extra.get(site, {}).items():
            deployments.setdefault(type_name, []).extend(keys)
        report["deployments"] = {
            t: [k for k in keys if k not in self._removed]
            for t, keys in deployments.items()
        }
        return report
        yield  # pragma: no cover - generator marker

    def install(self, type_name, site):
        self.installed.append((type_name, site))
        key = f"{site}:{type_name.lower()}-bin"
        self._extra.setdefault(site, {}).setdefault(type_name, []).append(key)
        return "installed"
        yield  # pragma: no cover - generator marker

    def set_lifetime(self, site, key, when):
        self.drained.append((site, key, when))
        self._removed.add(key)
        return True
        yield  # pragma: no cover - generator marker

    def apply_spec(self, state):
        self.applied.append(state)
        return len(self._current())
        yield  # pragma: no cover - generator marker


def report(utilization=0.1, shed_total=0, deployments=None):
    return {
        "utilization": utilization,
        "load": 0.0,
        "run_queue": 0,
        "shed_by_op": {"instantiate": shed_total} if shed_total else {},
        "deployments": deployments or {},
    }


SPECS = (DeploymentSpec(type_name="Hot", min_replicas=1, max_replicas=3,
                        target_utilization=0.6),)


def drive_rounds(reconciler, n):
    """Run ``n`` reconcile_once rounds back-to-back inside the sim."""
    plans = []

    def driver():
        for _ in range(n):
            plan = yield from reconciler.reconcile_once()
            plans.append(plan)
            yield reconciler.sim.timeout(INTERVAL)

    reconciler.sim.process(driver(), name="test-driver")
    reconciler.sim.run()
    return plans


def build(script):
    sim = Simulator()
    actuator = ScriptedActuator(script)
    reconciler = Reconciler(FakeRdm(sim), SPECS, actuator=actuator)
    # the fake advances its script in lockstep with the driver
    original = reconciler.reconcile_once

    def stepping():
        plan = yield from original()
        actuator.round += 1
        return plan

    reconciler.reconcile_once = stepping
    return sim, actuator, reconciler


BOOT = {"a": report(deployments={"Hot": ["a:hot-bin"]}), "b": report()}


class TestSpecReplication:
    def test_specs_must_name_distinct_types(self):
        sim = Simulator()
        for specs in ((), SPECS + SPECS):
            with pytest.raises(ValueError):
                Reconciler(FakeRdm(sim), specs, actuator=ScriptedActuator([BOOT]))

    def test_first_round_applies_revision_one_once(self):
        sim, actuator, reconciler = build([BOOT])
        drive_rounds(reconciler, 3)
        assert len(actuator.applied) == 1
        state = actuator.applied[0]
        assert state.revision == 1
        assert set(state.specs) == {"Hot"}


class TestScaleOut:
    def test_hot_type_scales_out_to_coldest_site(self):
        script = [{
            "a": report(utilization=0.95, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.4),
            "c": report(utilization=0.1),
        }]
        sim, actuator, reconciler = build(script)
        drive_rounds(reconciler, 1)
        assert actuator.installed == [("Hot", "c")]

    def test_shedding_site_forces_scale_out(self):
        script = [{
            "a": report(utilization=0.2, shed_total=9,
                        deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.1),
        }]
        sim, actuator, reconciler = build(script)
        drive_rounds(reconciler, 1)
        assert actuator.installed == [("Hot", "b")]

    def test_shed_counter_is_differenced_not_cumulative(self):
        # the same cumulative total in later rounds = no new sheds, and
        # utilization is low, so after the first install the loop must
        # not keep scaling out
        script = [{
            "a": report(utilization=0.9, shed_total=9,
                        deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.1),
            "c": report(utilization=0.1),
        }, {
            "a": report(utilization=0.4, shed_total=9,
                        deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.4),
            "c": report(utilization=0.1),
        }]
        sim, actuator, reconciler = build(script)
        drive_rounds(reconciler, 3)
        assert actuator.installed == [("Hot", "b")]


class TestScaleIn:
    def test_scale_in_damped_until_streak(self):
        quiet = {
            "a": report(utilization=0.05, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.05, deployments={"Hot": ["b:hot-bin"]}),
        }
        sim, actuator, reconciler = build([quiet])
        drive_rounds(reconciler, 1)
        assert actuator.drained == []  # first proposal only starts the streak
        drive_rounds(reconciler, 1)
        assert [d[0] for d in actuator.drained] == ["b"]  # lexicographic tail

    def test_drain_deadline_honours_grace(self):
        quiet = {
            "a": report(utilization=0.05, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.05, deployments={"Hot": ["b:hot-bin"]}),
        }
        sim, actuator, reconciler = build([quiet])
        drive_rounds(reconciler, 2)
        (site, key, when) = actuator.drained[0]
        assert key == "b:hot-bin"
        assert when == sim.now - INTERVAL + DRAIN_GRACE

    def test_draining_pair_not_double_drained(self):
        quiet = {
            "a": report(utilization=0.05, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.05, deployments={"Hot": ["b:hot-bin"]}),
        }
        sim, actuator, reconciler = build([quiet])
        drive_rounds(reconciler, 4)
        assert len(actuator.drained) == 1


class TestUnreachableSites:
    def test_unreachable_site_placements_vanish(self):
        script = [{
            "a": None,
            "b": report(utilization=0.1),
        }]
        sim, actuator, reconciler = build(script)
        plans = drive_rounds(reconciler, 1)
        # "a" held the only replica but did not answer: bootstrap on "b"
        tp = plans[0].for_type("Hot")
        assert tp.reason == "bootstrap"
        assert actuator.installed == [("Hot", "b")]


class TestConvergenceAndDigest:
    def test_convergence_time_recorded(self):
        script = [{
            "a": report(utilization=0.9, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.1),
        }, {
            "a": report(utilization=0.5, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.5),
        }]
        sim, actuator, reconciler = build(script)
        drive_rounds(reconciler, 2)
        assert reconciler.convergence_times == [INTERVAL]
        rounds = entries(sim.journal, "orchestrate", "round")
        assert [r["converged"] for r in rounds] == [False, True]

    def test_fingerprint_deterministic_across_runs(self):
        script = [{
            "a": report(utilization=0.9, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.1),
        }]
        prints = []
        for _ in range(2):
            sim, actuator, reconciler = build(script)
            drive_rounds(reconciler, 3)
            prints.append(reconciler.fingerprint())
        assert prints[0] == prints[1]

    def test_fingerprint_folds_the_journal_as_before(self):
        """One install, one drain, five rounds: the fold of the journal's
        ``orchestrate`` entries equals the digest the reconciler kept
        beside its round records before the journal existed."""
        script = [{
            "a": report(utilization=0.9, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.1),
        }, {
            "a": report(utilization=0.05, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.05),
        }]
        sim, actuator, reconciler = build(script)
        drive_rounds(reconciler, 5)
        kinds = [e["kind"] for e in entries(sim.journal, "orchestrate")]
        assert kinds.count("round") == 5
        assert kinds.count("install") == kinds.count("drain") == 1
        assert reconciler.fingerprint() == (
            "7109ada5c26c3831c13764e663de09c4c7f4025b096211f68a53b7b405ba74e8")

    def test_replica_history_tracks_observed_counts(self):
        script = [{
            "a": report(utilization=0.9, deployments={"Hot": ["a:hot-bin"]}),
            "b": report(utilization=0.1),
        }]
        sim, actuator, reconciler = build(script)
        drive_rounds(reconciler, 2)
        # the observed replica count of each journaled round
        counts = [count for entry in entries(sim.journal, "orchestrate", "round")
                  for name, count in entry["replicas"] if name == "Hot"]
        assert counts == [1, 2]  # the install shows up next round


class TestLifecycle:
    def test_stop_leaves_no_standing_agenda_entry(self):
        sim, actuator, reconciler = build([BOOT])
        reconciler.start()
        sim.run(until=INTERVAL * 2.5)
        assert entries(sim.journal, "orchestrate", "round")  # the loop did run
        reconciler.stop()
        reconciler.stop()  # idempotent
        sim.run()  # deliver the interrupt; the cancelled tick is gone
        assert math.isinf(sim.peek())

    def test_double_start_is_a_noop(self):
        sim, actuator, reconciler = build([BOOT])
        reconciler.start()
        reconciler.start()
        sim.run(until=INTERVAL * 2.5)
        assert len(entries(sim.journal, "orchestrate", "round")) == 2  # one loop
