"""The declarative layer of desired-state orchestration.

A :class:`DeploymentSpec` states *what should be true* for one activity
type — how many replicas, where they may be placed, how hot they may
run — and says nothing about how to get there; the planner and
reconciler own the *how*.  Specs are frozen and hashable so a plan is a
pure function of (specs, observations), and they serialise to plain
dicts (``to_wire``/``from_wire``) because the reconciler replicates
them to RDM services via ``op_apply_spec`` — desired state must survive
a super-peer takeover, so it travels like any other registry content.

``VOConfig.orchestration`` is the tuple of specs to manage; the
default, an empty tuple, builds no reconciler at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = ["DeploymentSpec", "DesiredState"]


@dataclass(frozen=True)
class DeploymentSpec:
    """Desired state for one activity type.

    Parameters
    ----------
    type_name:
        The (concrete, installable) activity type being managed.
    min_replicas / max_replicas:
        Replica-count bounds; the planner never plans outside them.
    target_utilization:
        Scale-out threshold: when the mean utilization (busy slots /
        capacity) across the type's replica sites exceeds this — or any
        replica site sheds admissions — the planner adds replicas.
    constraints:
        Placement constraints as ``(attribute, value)`` pairs matched
        against each site's :class:`~repro.site.description.
        SiteDescription` (same semantics as installation constraints).
    avoid_sites:
        Sites never planned for this type regardless of capacity (e.g.
        keep the community/coordination site free).
    """

    type_name: str
    min_replicas: int = 1
    max_replicas: int = 4
    target_utilization: float = 0.6
    constraints: Tuple[Tuple[str, str], ...] = ()
    avoid_sites: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.type_name:
            raise ValueError("a deployment spec needs a type name")
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")

    @property
    def constraints_map(self) -> Dict[str, str]:
        return dict(self.constraints)

    def to_wire(self) -> Dict[str, object]:
        return {
            "type": self.type_name,
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "target_utilization": self.target_utilization,
            "constraints": [list(pair) for pair in self.constraints],
            "avoid_sites": list(self.avoid_sites),
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, object]) -> "DeploymentSpec":
        return cls(
            type_name=str(wire["type"]),
            min_replicas=int(wire.get("min_replicas", 1)),
            max_replicas=int(wire.get("max_replicas", 4)),
            target_utilization=float(wire.get("target_utilization", 0.6)),
            constraints=tuple(
                (str(k), str(v)) for k, v in wire.get("constraints", [])
            ),
            avoid_sites=tuple(str(s) for s in wire.get("avoid_sites", [])),
        )


@dataclass
class DesiredState:
    """The replicated desired-state document an RDM service holds.

    Written only through ``op_apply_spec`` (the reconciler is the sole
    originator); the revision counter makes replication idempotent and
    rejects stale re-deliveries after a takeover.
    """

    revision: int = 0
    specs: Dict[str, DeploymentSpec] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, object]:
        return {
            "revision": self.revision,
            "specs": [self.specs[name].to_wire() for name in sorted(self.specs)],
        }

