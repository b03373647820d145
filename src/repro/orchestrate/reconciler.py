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
``scale_in_rounds`` rounds in a row before a replica is actually
drained, so one quiet sample between bursts does not thrash installs.

Every actuation and every round folds a record into a
:class:`~repro.load.stats.CommutativeDigest`, making a whole
orchestration run fingerprintable for the determinism gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.load.stats import CommutativeDigest
from repro.orchestrate.actuator import Actuator, RdmActuator
from repro.orchestrate.planner import Observed, Plan, Planner, SiteObservation
from repro.orchestrate.spec import DesiredState, OrchestrationConfig
from repro.simkernel.primitives import Periodic

__all__ = ["Reconciler", "RoundRecord"]


@dataclass(frozen=True)
class RoundRecord:
    """What one reconciliation round saw and did."""

    at: float
    #: sites that answered ``report_observed`` this round
    observed_sites: int
    #: replica count per managed type after planning, sorted by type
    replicas: Tuple[Tuple[str, int], ...]
    #: actuations performed ("install:TYPE@site=status" / "drain:TYPE@site/key")
    actions: Tuple[str, ...]
    #: the plan proposed no diff (desired state held)
    converged: bool


class Reconciler(Periodic):
    """Desired-state control loop over one VO (see module docstring)."""

    def __init__(
        self,
        rdm,
        config: OrchestrationConfig,
        actuator: Optional[Actuator] = None,
        health=None,
    ) -> None:
        if not config.any_enabled:
            raise ValueError("reconciler needs at least one deployment spec")
        super().__init__(
            rdm.sim, config.interval, self.reconcile_once, "orchestrate-reconciler"
        )
        self.rdm = rdm
        self.config = config
        self.actuator = actuator if actuator is not None else RdmActuator(rdm)
        self.health = health
        self.planner = Planner(config)
        self.rounds: List[RoundRecord] = []
        #: observed divergence → convergence durations (simulated s)
        self.convergence_times: List[float] = []
        self.digest = CommutativeDigest()
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
        return sorted(spec.type_name for spec in self.config.specs)

    # -- one round ---------------------------------------------------------

    def reconcile_once(self) -> Generator:
        """Observe → plan → actuate exactly once; returns the Plan."""
        if not self._spec_applied:
            state = DesiredState(
                revision=1,
                specs={s.type_name: s for s in self.config.specs},
            )
            yield from self.actuator.apply_spec(state)
            self._spec_applied = True

        names = yield from self.actuator.sites()
        names = sorted(names)
        descriptions = yield from self.actuator.probe(names)
        observed = yield from self._observe(names, descriptions)
        plan = self.planner.plan(list(self.config.specs), observed)
        actions = yield from self._actuate(plan, observed)
        self._track_convergence(plan)

        replicas = tuple(
            (tp.type_name, len(observed.placements.get(tp.type_name, ())))
            for tp in plan.types
        )
        record = RoundRecord(
            at=self.sim.now,
            observed_sites=len(observed.sites),
            replicas=replicas,
            actions=tuple(actions),
            converged=plan.converged,
        )
        self.rounds.append(record)
        self.digest.fold(
            f"round|{record.at:.6f}|{record.observed_sites}"
            f"|{','.join(f'{t}={n}' for t, n in replicas)}"
            f"|{';'.join(actions)}|{int(record.converged)}"
        )
        return plan

    def _observe(self, names: List[str], descriptions: Dict) -> Generator:
        cfg = self.config
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
            alpha = cfg.utilization_smoothing
            smoothed = alpha * raw + (1.0 - alpha) * prev
            self._smoothed[name] = smoothed
            shed_total = sum(report.get("shed_by_op", {}).values())
            shed_delta = max(0, shed_total - self._shed_totals.get(name, 0))
            self._shed_totals[name] = shed_total
            health = (
                self.health.node_state(name) if self.health is not None else "healthy"
            )
            sites.append(SiteObservation(
                site=name,
                utilization=smoothed,
                load=float(report.get("load", 0.0)),
                run_queue=int(report.get("run_queue", 0)),
                shed=shed_delta,
                health=health,
                description=descriptions.get(name),
            ))
            for type_name, keys in report.get("deployments", {}).items():
                if type_name not in placements or not keys:
                    continue
                pair = (type_name, name)
                deadline = self._draining.get(pair)
                if deadline is not None:
                    if now <= deadline + cfg.interval:
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
        cfg = self.config
        budget = cfg.max_actions_per_round
        actions: List[str] = []
        for tp in plan.types:
            # scale-in damping: drain only after N consecutive proposals
            if tp.reason == "scale-in":
                streak = self._scale_in_streak.get(tp.type_name, 0) + 1
                self._scale_in_streak[tp.type_name] = streak
                if streak < cfg.scale_in_rounds:
                    continue
            else:
                self._scale_in_streak[tp.type_name] = 0

            for site in tp.add:
                if budget <= 0:
                    break
                status = yield from self.actuator.install(tp.type_name, site)
                budget -= 1
                entry = f"install:{tp.type_name}@{site}={status}"
                actions.append(entry)
                self.digest.fold(f"act|{self.sim.now:.6f}|{entry}")

            for site in tp.remove:
                if budget <= 0:
                    break
                pair = (tp.type_name, site)
                if pair in self._draining:
                    continue  # already on its way out
                keys = self._deployment_keys.get(pair, [])
                deadline = self.sim.now + cfg.drain_grace
                drained = False
                for key in keys:
                    ok = yield from self.actuator.set_lifetime(site, key, deadline)
                    drained = drained or ok
                if drained:
                    budget -= 1
                    self._draining[pair] = deadline
                    entry = f"drain:{tp.type_name}@{site}/{len(keys)}"
                    actions.append(entry)
                    self.digest.fold(f"act|{self.sim.now:.6f}|{entry}")
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
        """Deterministic digest over every round and actuation."""
        return self.digest.hexdigest()

    def replica_history(self, type_name: str) -> List[Tuple[float, int]]:
        """(time, observed replica count) per round for one type."""
        out: List[Tuple[float, int]] = []
        for record in self.rounds:
            for name, count in record.replicas:
                if name == type_name:
                    out.append((record.at, count))
        return out
