"""The GLARE-backed workflow scheduler.

"The workflow description can then be submitted to the scheduler.  The
scheduler interacts with a local GLARE service and requests for an
activity deployment capable to provide the requested service." (paper
§2.2, Fig. 4)

The scheduler runs at one *home site*, talks only to that site's RDM
(Local Access, §3.2), and maps every workflow node to a concrete
deployment.  Deployment selection prefers (1) service deployments or
executables equally, (2) sites already chosen for predecessor nodes
(to avoid transfers), (3) deterministic tie-breaking by site name.
On-demand installation is GLARE's job — a type with no deployment
anywhere simply costs the scheduler one slower ``get_deployments``
call (the "Total overhead for meta-scheduler" row of Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List

from repro.glare.model import ActivityDeployment
from repro.glare.registry import deployment_from_wire
from repro.vo import VirtualOrganization
from repro.workflow.model import ActivityNode, Workflow, WorkflowError


@dataclass
class ScheduledActivity:
    """One node mapped to a concrete deployment."""

    node: ActivityNode
    deployment: ActivityDeployment
    mapped_at: float = 0.0


@dataclass
class Schedule:
    """A complete mapping of a workflow."""

    workflow: Workflow
    home_site: str
    mappings: Dict[str, ScheduledActivity] = field(default_factory=dict)
    mapping_time: float = 0.0

    def site_of(self, node_id: str) -> str:
        return self.mappings[node_id].deployment.site


class Scheduler:
    """Maps workflows to deployments through one local GLARE service.

    ``policy`` selects how candidates are ranked:

    * ``"colocate"`` (default) — prefer sites already chosen for other
      nodes of this workflow, minimising data staging;
    * ``"load-aware"`` — GridARM resource brokerage: live site load per
      core, discounted by the type's platform benchmarks, with a
      penalty for recent failures.
    """

    def __init__(self, vo: VirtualOrganization, home_site: str,
                 policy: str = "colocate") -> None:
        if home_site not in vo.stacks:
            raise WorkflowError(f"unknown home site {home_site!r}")
        if policy not in ("colocate", "load-aware"):
            raise WorkflowError(f"unknown scheduling policy {policy!r}")
        self.vo = vo
        self.home_site = home_site
        self.policy = policy
        if policy == "load-aware":
            from repro.gridarm.broker import ResourceBroker

            self.broker = ResourceBroker(vo, home_site)
        else:
            self.broker = None
        self.lookups = 0

    def map_workflow(self, workflow: Workflow,
                     auto_deploy: bool = True) -> Generator:
        """Sub-generator: resolve every node; yields a :class:`Schedule`."""
        workflow.validate()
        schedule = Schedule(workflow=workflow, home_site=self.home_site)
        started = self.vo.sim.now
        chosen_sites: Dict[str, str] = {}
        deployment_cache: Dict[str, List[ActivityDeployment]] = {}

        for node in workflow.topological_order():
            candidates = deployment_cache.get(node.type_name)
            if candidates is None:
                wires = yield from self.vo.client_call(
                    self.home_site, "get_deployments",
                    payload={"type": node.type_name, "auto_deploy": auto_deploy},
                )
                self.lookups += 1
                candidates = [deployment_from_wire(w) for w in wires]
                deployment_cache[node.type_name] = candidates
            if not candidates:
                raise WorkflowError(
                    f"no deployment for type {node.type_name!r} "
                    f"(node {node.node_id!r})"
                )
            if self.broker is not None:
                activity_type = self.vo.stack(self.home_site).atr.find_type(
                    node.type_name
                )
                ranked = yield from self.broker.rank(candidates, activity_type)
                if not ranked:
                    raise WorkflowError(
                        f"all candidate sites for {node.type_name!r} are down"
                    )
                deployment = ranked[0].deployment
            else:
                deployment = self._select(node, candidates, chosen_sites)
            chosen_sites[node.node_id] = deployment.site
            schedule.mappings[node.node_id] = ScheduledActivity(
                node=node, deployment=deployment, mapped_at=self.vo.sim.now
            )
        schedule.mapping_time = self.vo.sim.now - started
        return schedule

    def _select(
        self,
        node: ActivityNode,
        candidates: List[ActivityDeployment],
        chosen_sites: Dict[str, str],
    ) -> ActivityDeployment:
        """Prefer co-location with predecessors, then stable order."""
        preferred = {
            chosen_sites[p]
            for p in self._predecessor_ids(node, chosen_sites)
            if p in chosen_sites
        }
        usable = [c for c in candidates if c.usable] or candidates

        def sort_key(deployment: ActivityDeployment):
            return (deployment.site not in preferred, deployment.site, deployment.name)

        return sorted(usable, key=sort_key)[0]

    def _predecessor_ids(self, node: ActivityNode, chosen: Dict[str, str]) -> List[str]:
        # the workflow isn't reachable from here; co-location preference
        # uses whatever has been chosen so far
        return list(chosen)
