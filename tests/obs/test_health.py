"""Unit tests for the health registry and the detection timeline."""

import pytest

from repro.obs.health import (
    DEGRADED,
    DEGRADED_HOLD,
    DOWN,
    HEALTHY,
    RECOVERING,
    HealthRegistry,
    detection_timeline,
)
from repro.simkernel import Simulator, entries


def make_registry():
    sim = Simulator(seed=1)
    registry = HealthRegistry()
    registry.bind(sim)
    return sim, registry


class TestHealthRegistry:
    def test_unknown_node_is_healthy(self):
        _, registry = make_registry()
        assert registry.node_state("agrid99") == HEALTHY
        assert registry.node_since("agrid99") == 0.0

    def test_crash_and_restart_walk_the_states(self):
        sim, registry = make_registry()
        sim.run(until=10.0)
        registry.crashed("agrid01")
        assert registry.node_state("agrid01") == DOWN
        assert registry.node_since("agrid01") == pytest.approx(10.0)
        sim.run(until=40.0)
        registry.restarted("agrid01")
        assert registry.node_state("agrid01") == RECOVERING
        # the first successful dispatch completes recovery
        registry.record_dispatch("agrid01", "glare-rdm", ok=True)
        assert registry.node_state("agrid01") == HEALTHY

    def test_dispatch_failure_degrades_and_hold_heals(self):
        sim, registry = make_registry()
        assert DEGRADED_HOLD == 30.0
        registry.record_dispatch("agrid02", "glare-rdm", ok=False)
        assert registry.node_state("agrid02") == DEGRADED
        assert registry.service_state("agrid02", "glare-rdm") == DEGRADED
        # success inside the hold window does not heal
        sim.run(until=10.0)
        registry.record_dispatch("agrid02", "glare-rdm", ok=True)
        assert registry.node_state("agrid02") == DEGRADED
        # success past the hold heals node and service
        sim.run(until=31.0)
        registry.record_dispatch("agrid02", "glare-rdm", ok=True)
        assert registry.node_state("agrid02") == HEALTHY
        assert registry.service_state("agrid02", "glare-rdm") == HEALTHY

    def test_failure_extends_the_hold(self):
        sim, registry = make_registry()
        registry.record_dispatch("agrid02", "glare-rdm", ok=False)
        sim.run(until=20.0)
        registry.record_dispatch("agrid02", "glare-rdm", ok=False)
        # 31 s after the first failure, but inside the second's hold
        sim.run(until=31.0)
        registry.record_dispatch("agrid02", "glare-rdm", ok=True)
        assert registry.service_state("agrid02", "glare-rdm") == DEGRADED

    def test_node_state_dominates_service_state(self):
        _, registry = make_registry()
        registry.record_dispatch("agrid03", "glare-rdm", ok=True)
        registry.crashed("agrid03")
        assert registry.service_state("agrid03", "glare-rdm") == DOWN

    def test_down_is_not_masked_by_dispatch_failures(self):
        _, registry = make_registry()
        registry.crashed("agrid04")
        registry.record_dispatch("agrid04", "glare-rdm", ok=False)
        assert registry.node_state("agrid04") == DOWN

    def test_summary_and_listings(self):
        _, registry = make_registry()
        registry.record_dispatch("agrid01", "glare-rdm", ok=False)
        registry.crashed("agrid02")
        registry.record_dispatch("agrid03", "glare-adm", ok=True)
        assert registry.nodes() == ["agrid01", "agrid02", "agrid03"]
        assert registry.services_of("agrid01") == ["glare-rdm"]
        assert registry.summary() == {
            HEALTHY: 1, DEGRADED: 1, RECOVERING: 0, DOWN: 1,
        }

    def test_transitions_are_logged_in_order(self):
        sim, registry = make_registry()
        registry.crashed("agrid01")
        sim.run(until=30.0)
        registry.restarted("agrid01")
        registry.record_dispatch("agrid01", "glare-rdm", ok=True)
        states = [(t["state"], t["at"])
                  for t in entries(sim.journal, "health", "transition")
                  if t["service"] is None]
        assert states == [(DOWN, 0.0), (RECOVERING, 30.0), (HEALTHY, 30.0)]


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
