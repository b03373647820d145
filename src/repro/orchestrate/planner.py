"""The pure capacity planner.

``Planner().plan(specs, observed)`` maps declared desired state plus one
round of observations to a placement plan.  It is deliberately a pure
function: no simulator handle, no randomness, no mutation of its
inputs, deterministic tie-breaking everywhere — so the same gauges
always yield the same plan (unit-tested as a property), and a plan can
be recomputed after a super-peer takeover from replicated state alone.

It plans only from what the reconciler's own probes report.  Signals
per managed type:

* **pressure** — mean utilization (busy slots / capacity) over the
  type's current replica sites, as smoothed by the reconciler; no
  replicas at all counts as infinite pressure.
* **shed** — admission-control sheds on replica sites since the last
  round; any shedding forces scale-out even below the utilization
  threshold (the queue is already overflowing).
* **presence** — a site that did not answer its probe (crashed, or
  churned out) is missing from the observation, so its replicas do not
  count and the type is topped back up elsewhere.

Scale-out targets are the least-loaded eligible sites; scale-in drains
from the lexicographic tail of the eligible placement set, so the
longest-prefix sites (the original replicas) are the stable core.  A
replica on a site the spec no longer admits is drained only while the
placements left still reach ``min_replicas``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.orchestrate.spec import DeploymentSpec
from repro.site.description import SiteDescription

__all__ = ["Observed", "Plan", "Planner", "SiteObservation", "TypePlan"]

#: replicas added per overloaded type per round
SCALE_OUT_STEP = 1
#: scale-in hysteresis: a replica drains only when mean utilization
#: sits below this fraction of the spec's ``target_utilization``
LOW_WATER_FRACTION = 0.5


@dataclass(frozen=True)
class SiteObservation:
    """One site's gauge sample as the planner sees it."""

    site: str
    #: smoothed busy-slots / capacity (the ``site.utilization`` gauge)
    utilization: float = 0.0
    #: load average (EWMA of runnable jobs)
    load: float = 0.0
    #: instantaneous run-queue depth
    run_queue: int = 0
    #: admission sheds on this site since the previous round (delta)
    shed: int = 0
    #: probed static attributes for placement-constraint matching
    description: Optional[SiteDescription] = None


@dataclass(frozen=True)
class Observed:
    """One reconciliation round's full input."""

    sites: Tuple[SiteObservation, ...]
    #: current replica sites per managed type (ACTIVE deployments)
    placements: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class TypePlan:
    """The planner's verdict for one activity type."""

    type_name: str
    desired: int
    #: the full target placement set (sorted)
    placements: Tuple[str, ...]
    #: sites to gain a replica this round
    add: Tuple[str, ...] = ()
    #: sites to drain (lifetime-shortened, then GC'd)
    remove: Tuple[str, ...] = ()
    #: why the count moved: "scale-out" / "scale-in" / "steady" /
    #: "route-around" / "bootstrap"
    reason: str = "steady"


@dataclass(frozen=True)
class Plan:
    """A full placement plan; empty diff means the VO has converged."""

    types: Tuple[TypePlan, ...]

    @property
    def actions(self) -> int:
        return sum(len(t.add) + len(t.remove) for t in self.types)

    @property
    def converged(self) -> bool:
        return self.actions == 0

    def for_type(self, name: str) -> Optional[TypePlan]:
        for tp in self.types:
            if tp.type_name == name:
                return tp
        return None


class Planner:
    """Pure spec + gauges → plan mapping (see module docstring)."""

    # -- eligibility -------------------------------------------------------

    def _eligible(self, spec: DeploymentSpec,
                  observed: Observed) -> List[SiteObservation]:
        """Sites this type may be placed on, in observation order."""
        avoid = set(spec.avoid_sites)
        constraints = spec.constraints_map
        out: List[SiteObservation] = []
        for obs in observed.sites:
            if obs.site in avoid:
                continue
            if constraints:
                if obs.description is None:
                    continue
                if not obs.description.satisfies(constraints):
                    continue
            out.append(obs)
        return out

    # -- planning ----------------------------------------------------------

    def plan(self, specs: Sequence[DeploymentSpec], observed: Observed) -> Plan:
        by_site: Dict[str, SiteObservation] = {o.site: o for o in observed.sites}
        plans = tuple(
            self._plan_type(spec, observed, by_site)
            for spec in sorted(specs, key=lambda s: s.type_name)
        )
        return Plan(types=plans)

    def _plan_type(self, spec: DeploymentSpec, observed: Observed,
                   by_site: Dict[str, SiteObservation]) -> TypePlan:
        eligible = self._eligible(spec, observed)
        eligible_names = {o.site for o in eligible}
        current = sorted(
            s for s in observed.placements.get(spec.type_name, ()) if s in by_site
        )
        keep = [s for s in current if s in eligible_names]
        routed_off = [s for s in current if s not in eligible_names]

        utils = [by_site[s].utilization for s in current]
        pressure = (sum(utils) / len(utils)) if utils else float("inf")
        shed = sum(by_site[s].shed for s in current)

        desired = len(current)
        reason = "steady"
        if not current:
            desired, reason = spec.min_replicas, "bootstrap"
        elif pressure > spec.target_utilization or shed > 0:
            desired, reason = desired + SCALE_OUT_STEP, "scale-out"
        elif (pressure < LOW_WATER_FRACTION * spec.target_utilization
                and shed == 0):
            desired, reason = desired - 1, "scale-in"
        desired = max(spec.min_replicas, min(spec.max_replicas, desired))

        # scale-out: least-loaded eligible sites not already placed
        candidates = sorted(
            (o for o in eligible if o.site not in set(keep)),
            key=lambda o: (o.utilization, o.load, o.run_queue, o.site),
        )
        add: List[str] = []
        while len(keep) + len(add) < desired and candidates:
            add.append(candidates.pop(0).site)

        # scale-in: drain the lexicographic tail of the eligible set so
        # the longest-standing (lowest-named) replicas stay put
        surplus = sorted(keep)[desired:] if len(keep) > desired else []
        # an ineligible replica drains only while the placements left
        # still reach min_replicas; the lowest-named ones stay first
        left = len(keep) - len(surplus) + len(add)
        stay = routed_off[:max(0, spec.min_replicas - left)]
        routed_off = routed_off[len(stay):]
        if routed_off and reason == "steady":
            reason = "route-around"
        remove = routed_off + surplus
        placements = tuple(sorted(
            [s for s in keep if s not in set(surplus)] + add + stay
        ))
        if desired != len(current) and not add and not surplus:
            reason = "steady"  # nothing actionable (e.g. no eligible site)
        return TypePlan(
            type_name=spec.type_name,
            desired=desired,
            placements=placements,
            add=tuple(sorted(add)),
            remove=tuple(sorted(remove)),
            reason=reason,
        )
