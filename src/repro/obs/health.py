"""Fault-aware health registry: node/service states, MTTD/MTTR timelines.

The SLO plane (:mod:`repro.obs.slo`) judges *request streams*; this
module judges *the VO itself*.  A :class:`HealthRegistry` keeps one
state per node and per service, driven by three signal sources:

* the :class:`~repro.faults.FaultPlane` — a crash marks the node
  ``down``, a restart marks it ``recovering``;
* :meth:`Service.dispatch <repro.net.service.Service.dispatch>`
  accounting — a failed or shed dispatch degrades the service (and its
  node) for a hold window; a success after the hold heals it, and the
  first successful dispatch on a recovering node completes recovery;
* the gauge recorder — offline nodes leave gaps in their series (the
  recorder skips them), which is how dashboards see the outage.

States and their precedence: ``down`` > ``recovering`` > ``degraded``
> ``healthy``.  Every transition is a ``health`` journal entry.

:func:`detection_timeline` pairs the journal's crashes with its
burn-rate alerts: **MTTD** is crash → first alert fired, **MTTR** is
crash → the moment every alert has resolved again (the operator's
"incident closed" signal).  Both are pure functions of the journal, so
the fig16 extension can gate their exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.simkernel.kernel import entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

HEALTHY = "healthy"
DEGRADED = "degraded"
DOWN = "down"
RECOVERING = "recovering"

#: precedence for summarising (higher = worse)
_SEVERITY = {HEALTHY: 0, DEGRADED: 1, RECOVERING: 2, DOWN: 3}

#: how long (simulated seconds) a failure keeps an entity ``degraded``;
#: the first *success* at or after the hold expiry returns it to
#: ``healthy``
DEGRADED_HOLD = 30.0


class HealthRegistry:
    """Per-node and per-service health, derived from live signals."""

    def __init__(self) -> None:
        #: the clock and journal; set by :meth:`bind`
        self.sim: Optional["Simulator"] = None
        self._node_state: Dict[str, str] = {}
        self._node_since: Dict[str, float] = {}
        #: (node, service) -> degraded-until timestamp
        self._service_degraded_until: Dict[Tuple[str, str], float] = {}
        self._service_state: Dict[Tuple[str, str], str] = {}
        #: node -> degraded-until timestamp (dispatch failures only)
        self._node_degraded_until: Dict[str, float] = {}
        #: every (node, service) that ever dispatched, healthy or not
        self._seen: set = set()

    def bind(self, sim: "Simulator") -> None:
        self.sim = sim

    # -- state updates ------------------------------------------------------

    def _set_node(self, node: str, state: str, reason: str) -> None:
        if self._node_state.get(node, HEALTHY) == state:
            return
        self._node_state[node] = state
        self._node_since[node] = self.sim.now
        self.sim.note("health", "transition", site=node, service=None,
                      state=state, reason=reason)

    def _set_service(self, node: str, service: str, state: str,
                     reason: str) -> None:
        key = (node, service)
        if self._service_state.get(key, HEALTHY) == state:
            return
        self._service_state[key] = state
        self.sim.note("health", "transition", site=node, service=service,
                      state=state, reason=reason)

    def crashed(self, node: str) -> None:
        """The fault plane took ``node`` down."""
        self._set_node(node, DOWN, "fault-plane crash")

    def restarted(self, node: str) -> None:
        """The fault plane brought ``node`` back."""
        self._set_node(node, RECOVERING, "fault-plane restart")

    def record_dispatch(self, node: str, service: str, ok: bool) -> None:
        """Fold one dispatch outcome (called by ``Service.dispatch``)."""
        now = self.sim.now
        key = (node, service)
        self._seen.add(key)
        if ok:
            node_state = self._node_state.get(node, HEALTHY)
            if node_state == RECOVERING:
                self._set_node(node, HEALTHY, "first successful dispatch")
            elif (node_state == DEGRADED
                    and now >= self._node_degraded_until.get(node, 0.0)):
                self._set_node(node, HEALTHY, "failure-free past hold")
            if (self._service_state.get(key) == DEGRADED
                    and now >= self._service_degraded_until.get(key, 0.0)):
                self._set_service(node, service, HEALTHY,
                                  "failure-free past hold")
        else:
            self._service_degraded_until[key] = now + DEGRADED_HOLD
            self._set_service(node, service, DEGRADED, "dispatch failure")
            if self._node_state.get(node, HEALTHY) == HEALTHY:
                self._node_degraded_until[node] = now + DEGRADED_HOLD
                self._set_node(node, DEGRADED, "dispatch failure")

    # -- read side ----------------------------------------------------------

    def node_state(self, node: str) -> str:
        return self._node_state.get(node, HEALTHY)

    def node_since(self, node: str) -> float:
        """When the node entered its current state (0.0 if never moved)."""
        return self._node_since.get(node, 0.0)

    def service_state(self, node: str, service: str) -> str:
        """Service health (its node's state dominates when worse)."""
        own = self._service_state.get((node, service), HEALTHY)
        node_state = self.node_state(node)
        if _SEVERITY[node_state] > _SEVERITY[own]:
            return node_state
        return own

    def nodes(self) -> List[str]:
        """Every node that ever produced a signal, sorted."""
        seen = set(self._node_state)
        seen.update(node for node, _ in self._seen)
        return sorted(seen)

    def services_of(self, node: str) -> List[str]:
        seen = {svc for n, svc in self._service_state if n == node}
        seen.update(svc for n, svc in self._seen if n == node)
        return sorted(seen)

    def summary(self) -> Dict[str, int]:
        """State histogram over every known node."""
        counts = {HEALTHY: 0, DEGRADED: 0, RECOVERING: 0, DOWN: 0}
        for node in self.nodes():
            counts[self.node_state(node)] += 1
        return counts


@dataclass
class DetectionRecord:
    """One crash paired with its alert timeline."""

    site: str
    crash_at: float
    detected_at: Optional[float]
    recovered_at: Optional[float]

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def mttd(self) -> Optional[float]:
        """Crash → first burn-rate alert fired."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.crash_at

    @property
    def mttr(self) -> Optional[float]:
        """Crash → every alert resolved (incident closed)."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.crash_at


def detection_timeline(journal: List[Dict]) -> List[DetectionRecord]:
    """Pair each fault-plane crash in ``journal`` with the SLO alerts.

    Crashes are matched in journal order: each consumes the first
    un-consumed ``fired`` entry at or after its crash time (MTTD), and
    recovery is the first subsequent moment the active-alert set drains
    to empty (MTTR).  Undetected crashes get ``detected_at=None``.
    """
    alerts = entries(journal, "slo")
    fired = [e for e in alerts if e["kind"] == "fired"]
    # moments when the active-alert set returns to empty
    quiet: List[float] = []
    active = set()
    for entry in alerts:
        key = (entry["slo"], entry["rule"])
        if entry["kind"] == "fired":
            active.add(key)
        else:
            active.discard(key)
            if not active:
                quiet.append(entry["at"])

    records: List[DetectionRecord] = []
    fired_index = 0
    for crash in entries(journal, "faults", "crash"):
        detected_at: Optional[float] = None
        while fired_index < len(fired):
            entry = fired[fired_index]
            if entry["at"] >= crash["at"]:
                detected_at = entry["at"]
                fired_index += 1
                break
            fired_index += 1
        recovered_at: Optional[float] = None
        if detected_at is not None:
            recovered_at = next((t for t in quiet if t >= detected_at), None)
        records.append(DetectionRecord(
            site=crash["site"], crash_at=crash["at"],
            detected_at=detected_at, recovered_at=recovered_at,
        ))
    return records


__all__ = [
    "DEGRADED",
    "DEGRADED_HOLD",
    "DOWN",
    "DetectionRecord",
    "HEALTHY",
    "HealthRegistry",
    "RECOVERING",
    "detection_timeline",
]
