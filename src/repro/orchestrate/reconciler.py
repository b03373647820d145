"""The reconciliation loop: observe → plan → actuate, every interval.

A :class:`Reconciler` is a simulation process hosted next to the
community site's RDM service.  Each round it

1. asks the actuator for the membership list and (once) each site's
   static description,
2. collects one ``report_observed`` sample per reachable site —
   load average, run-queue depth, busy-slot utilization, admission
   shed counters, and the ACTIVE deployments of every managed type,
3. smooths the utilization signal (EWMA) and differences the shed
   counters so the planner sees *per-round* sheds,
4. asks the pure :class:`~repro.orchestrate.planner.Planner` for a
   plan and actuates the diff under a per-round action budget —
   scale-out through ``rollout`` installs, scale-in by shortening
   WSRF lifetimes so each site's LifetimeManager drains the replica.

The reconciler is the **only writer** of desired state: it pushes the
spec document to every site via ``apply_spec`` (revision-gated, so
re-deliveries after a super-peer takeover are idempotent) and nothing
else in the system mutates ``SiteAgent.desired_state``.

Scale-in is additionally damped: a type must be proposed for scale-in
:data:`SCALE_IN_ROUNDS` rounds in a row before a replica is actually
drained, so one quiet sample between bursts does not thrash installs.

The loop's settings are the module constants below, each at the one
value fig19 runs it with; the specs are all a caller declares.

Every round and every actuation is an ``orchestrate`` entry of the
simulator's journal (``round``, ``install``, ``drain``);
:meth:`Reconciler.fingerprint` folds them into a
:class:`~repro.load.stats.CommutativeDigest`, making a whole
orchestration run fingerprintable for the determinism gates.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.load.stats import CommutativeDigest
from repro.orchestrate.actuator import Actuator, RdmActuator
from repro.orchestrate.planner import Observed, Plan, Planner, SiteObservation
from repro.orchestrate.spec import DeploymentSpec, DesiredState
from repro.simkernel.kernel import entries
from repro.simkernel.primitives import Periodic

__all__ = ["Reconciler"]

#: reconcile cadence (seconds between observe → plan → actuate rounds)
INTERVAL = 2.0
#: extra lifetime granted to a drained replica before the WSRF sweep
#: garbage-collects it (lets in-flight requests finish)
DRAIN_GRACE = 3.0
#: consecutive scale-in proposals required before a replica drains
SCALE_IN_ROUNDS = 2
#: bound on actuations per round (installs are expensive; the loop
#: converges over several rounds rather than thundering)
MAX_ACTIONS_PER_ROUND = 4
#: EWMA factor of the per-site utilization signal (1.0 = raw samples)
UTILIZATION_SMOOTHING = 0.5


def _action(entry: Dict) -> str:
    """An ``install`` / ``drain`` journal entry as one action string."""
    if entry["kind"] == "install":
        return f"install:{entry['type']}@{entry['site']}={entry['status']}"
    return f"drain:{entry['type']}@{entry['site']}/{entry['deployments']}"


class Reconciler(Periodic):
    """Desired-state control loop over one VO (see module docstring)."""

    def __init__(
        self,
        rdm,
        specs: Sequence[DeploymentSpec],
        actuator: Optional[Actuator] = None,
    ) -> None:
        names = [spec.type_name for spec in specs]
        if not names:
            raise ValueError("reconciler needs at least one deployment spec")
        if len(names) != len(set(names)):
            raise ValueError("duplicate type in orchestration specs")
        super().__init__(
            rdm.sim, INTERVAL, self.reconcile_once, "orchestrate-reconciler"
        )
        self.rdm = rdm
        self.specs = tuple(specs)
        self.actuator = actuator if actuator is not None else RdmActuator(rdm)
        self.planner = Planner()
        #: observed divergence → convergence durations (simulated s)
        self.convergence_times: List[float] = []
        self._smoothed: Dict[str, float] = {}
        self._shed_totals: Dict[str, int] = {}
        self._scale_in_streak: Dict[str, int] = {}
        #: (type, site) pairs drained but possibly still registered
        #: until the site's lifetime sweep collects them
        self._draining: Dict[Tuple[str, str], float] = {}
        self._diverged_since: Optional[float] = None
        self._spec_applied = False

    @property
    def managed_types(self) -> List[str]:
        return sorted(spec.type_name for spec in self.specs)

    # -- one round ---------------------------------------------------------

    def reconcile_once(self) -> Generator:
        """Observe → plan → actuate exactly once; returns the Plan."""
        if not self._spec_applied:
            state = DesiredState(
                revision=1,
                specs={s.type_name: s for s in self.specs},
            )
            yield from self.actuator.apply_spec(state)
            self._spec_applied = True

        names = yield from self.actuator.sites()
        names = sorted(names)
        descriptions = yield from self.actuator.probe(names)
        observed = yield from self._observe(names, descriptions)
        plan = self.planner.plan(self.specs, observed)
        actions = yield from self._actuate(plan, observed)
        self._track_convergence(plan)

        # ``replicas``: the count per managed type after planning, by
        # type; ``converged``: the plan proposed no diff
        self.sim.note(
            "orchestrate", "round", observed_sites=len(observed.sites),
            replicas=tuple(
                (tp.type_name, len(observed.placements.get(tp.type_name, ())))
                for tp in plan.types),
            actions=tuple(actions), converged=plan.converged,
        )
        return plan

    def _observe(self, names: List[str], descriptions: Dict) -> Generator:
        managed = self.managed_types
        sites: List[SiteObservation] = []
        placements: Dict[str, List[str]] = {t: [] for t in managed}
        self._deployment_keys: Dict[Tuple[str, str], List[str]] = {}
        now = self.sim.now
        for name in names:
            report = yield from self.actuator.observe(name, managed)
            if report is None:
                # unreachable: drop its sample; its placements vanish
                # from the observation and the planner routes around it
                self._smoothed.pop(name, None)
                continue
            raw = float(report.get("utilization", 0.0))
            prev = self._smoothed.get(name, raw)
            smoothed = (UTILIZATION_SMOOTHING * raw
                        + (1.0 - UTILIZATION_SMOOTHING) * prev)
            self._smoothed[name] = smoothed
            shed_total = sum(report.get("shed_by_op", {}).values())
            shed_delta = max(0, shed_total - self._shed_totals.get(name, 0))
            self._shed_totals[name] = shed_total
            sites.append(SiteObservation(
                site=name,
                utilization=smoothed,
                load=float(report.get("load", 0.0)),
                run_queue=int(report.get("run_queue", 0)),
                shed=shed_delta,
                description=descriptions.get(name),
            ))
            for type_name, keys in report.get("deployments", {}).items():
                if type_name not in placements or not keys:
                    continue
                pair = (type_name, name)
                deadline = self._draining.get(pair)
                if deadline is not None:
                    if now <= deadline + INTERVAL:
                        continue  # draining; the sweep will collect it
                    self._draining.pop(pair)  # overdue: treat as live again
                placements[type_name].append(name)
                self._deployment_keys[pair] = list(keys)
        # a drained pair the site no longer reports is fully gone
        reported = {
            (t, s) for t, sites_ in placements.items() for s in sites_
        } | set(self._deployment_keys)
        for pair in [p for p in self._draining if p not in reported]:
            del self._draining[pair]
        return Observed(
            sites=tuple(sites),
            placements={t: tuple(s) for t, s in placements.items()},
        )

    def _actuate(self, plan: Plan, observed: Observed) -> Generator:
        budget = MAX_ACTIONS_PER_ROUND
        actions: List[str] = []
        for tp in plan.types:
            # scale-in damping: drain only after N consecutive proposals
            if tp.reason == "scale-in":
                streak = self._scale_in_streak.get(tp.type_name, 0) + 1
                self._scale_in_streak[tp.type_name] = streak
                if streak < SCALE_IN_ROUNDS:
                    continue
            else:
                self._scale_in_streak[tp.type_name] = 0

            for site in tp.add:
                if budget <= 0:
                    break
                status = yield from self.actuator.install(tp.type_name, site)
                budget -= 1
                actions.append(_action(self.sim.note(
                    "orchestrate", "install", type=tp.type_name, site=site,
                    status=status)))

            for site in tp.remove:
                if budget <= 0:
                    break
                pair = (tp.type_name, site)
                if pair in self._draining:
                    continue  # already on its way out
                keys = self._deployment_keys.get(pair, [])
                deadline = self.sim.now + DRAIN_GRACE
                drained = False
                for key in keys:
                    ok = yield from self.actuator.set_lifetime(site, key, deadline)
                    drained = drained or ok
                if drained:
                    budget -= 1
                    self._draining[pair] = deadline
                    actions.append(_action(self.sim.note(
                        "orchestrate", "drain", type=tp.type_name, site=site,
                        deployments=len(keys))))
        return actions

    def _track_convergence(self, plan: Plan) -> None:
        if plan.converged:
            if self._diverged_since is not None:
                self.convergence_times.append(self.sim.now - self._diverged_since)
                self._diverged_since = None
        elif self._diverged_since is None:
            self._diverged_since = self.sim.now

    # -- reporting ---------------------------------------------------------

    def fingerprint(self) -> str:
        """Deterministic digest over every journaled round and actuation."""
        digest = CommutativeDigest()
        for entry in entries(self.sim.journal, "orchestrate"):
            if entry["kind"] != "round":
                digest.fold(f"act|{entry['at']:.6f}|{_action(entry)}")
                continue
            replicas = ",".join(f"{t}={n}" for t, n in entry["replicas"])
            digest.fold(
                f"round|{entry['at']:.6f}|{entry['observed_sites']}|{replicas}"
                f"|{';'.join(entry['actions'])}|{int(entry['converged'])}")
        return digest.hexdigest()
