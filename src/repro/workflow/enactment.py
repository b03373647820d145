"""The enactment engine: run a scheduled workflow on the Grid.

Executes activities in dependency order (independent branches run
concurrently), instantiating each node's deployment through the target
site's RDM (GRAM job for executables, direct invocation for services —
paper Example 3), staging intermediate data between sites with GridFTP,
and retrying failed activities with re-mapping, in the fault-tolerant
spirit of the DEE engine the paper builds on [13].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.glare.errors import CLIENT_ERRORS
from repro.glare.model import ActivityDeployment
from repro.glare.registry import deployment_from_wire
from repro.simkernel.errors import OfflineError
from repro.net.network import RpcTimeout
from repro.vo import VirtualOrganization
from repro.workflow.model import ActivityNode, Workflow, WorkflowError
from repro.workflow.scheduler import Schedule, Scheduler


@dataclass
class ActivityRun:
    """Execution record of one workflow node."""

    node_id: str
    site: str
    deployment: str
    started_at: float
    finished_at: float
    attempts: int
    transfer_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class EnactmentResult:
    """Outcome of one workflow execution."""

    workflow: str
    success: bool
    makespan: float
    runs: Dict[str, ActivityRun] = field(default_factory=dict)
    retries: int = 0
    bytes_staged: int = 0
    error: str = ""


class EnactmentEngine:
    """Drives a :class:`Schedule` to completion."""

    def __init__(
        self,
        vo: VirtualOrganization,
        home_site: str,
        max_retries: int = 2,
    ) -> None:
        self.vo = vo
        self.home_site = home_site
        self.max_retries = max_retries

    @property
    def sim(self):
        return self.vo.sim

    def run(self, schedule: Schedule) -> Generator:
        """Sub-generator executing the workflow; yields EnactmentResult."""
        workflow = schedule.workflow
        result = EnactmentResult(workflow=workflow.name, success=False, makespan=0.0)
        started = self.sim.now

        done_events: Dict[str, object] = {
            node_id: self.sim.event(name=f"wf-node-{node_id}")
            for node_id in workflow.nodes
        }
        failure: List[str] = []

        def node_proc(node: ActivityNode) -> Generator:
            # wait for all predecessors
            for pred in workflow.predecessors(node.node_id):
                yield done_events[pred]
            if failure:
                done_events[node.node_id].succeed("skipped")
                return
            try:
                run = yield from self._run_node(schedule, node, result)
                result.runs[node.node_id] = run
                done_events[node.node_id].succeed("ok")
            except (WorkflowError, *CLIENT_ERRORS) as error:
                failure.append(f"{node.node_id}: {error}")
                done_events[node.node_id].succeed("failed")

        procs = [
            self.sim.process(node_proc(node), name=f"wf:{node.node_id}")
            for node in workflow.topological_order()
        ]
        yield self.sim.all_of(procs)

        result.makespan = self.sim.now - started
        result.success = not failure
        result.error = "; ".join(failure)
        return result

    def _run_node(
        self, schedule: Schedule, node: ActivityNode, result: EnactmentResult
    ) -> Generator:
        """Stage inputs, instantiate, record; retry with re-mapping."""
        mapping = schedule.mappings[node.node_id]
        deployment = mapping.deployment
        attempts = 0
        last_error: Optional[Exception] = None
        while attempts <= self.max_retries:
            attempts += 1
            started = self.sim.now
            try:
                transfer_time = yield from self._stage_inputs(
                    schedule, node, deployment, result
                )
                outcome = yield from self.vo.network.call(
                    self.home_site, deployment.site, "glare-rdm", "instantiate",
                    payload={"key": deployment.key, "demand": node.demand},
                    timeout=max(60.0, node.demand * 5 + 60.0),
                )
                if outcome["exit_code"] != 0:
                    raise WorkflowError(
                        f"activity exited with code {outcome['exit_code']}"
                    )
                self._materialize_outputs(schedule, node, deployment)
                return ActivityRun(
                    node_id=node.node_id,
                    site=deployment.site,
                    deployment=deployment.key,
                    started_at=started,
                    finished_at=self.sim.now,
                    attempts=attempts,
                    transfer_time=transfer_time,
                )
            except (OfflineError, RpcTimeout, WorkflowError) as error:
                last_error = error
                result.retries += 1
                if attempts > self.max_retries:
                    break
                # re-map: ask GLARE again, skipping the failed site
                deployment = yield from self._remap(node, exclude=deployment.site)
                if deployment is None:
                    break
        raise WorkflowError(
            f"node {node.node_id!r} failed after {attempts} attempt(s): {last_error}"
        )

    def _remap(self, node: ActivityNode, exclude: str) -> Generator:
        """Ask GLARE for an alternative deployment, avoiding ``exclude``."""
        try:
            wires = yield from self.vo.client_call(
                self.home_site, "get_deployments",
                payload={"type": node.type_name, "auto_deploy": True,
                         "exclude_sites": [exclude]},
            )
        except CLIENT_ERRORS:
            return None
        candidates = [deployment_from_wire(w) for w in wires]
        candidates = [c for c in candidates if c.site != exclude]
        if not candidates:
            return None
        return sorted(candidates, key=lambda c: (c.site, c.name))[0]

    def _stage_inputs(
        self,
        schedule: Schedule,
        node: ActivityNode,
        deployment: ActivityDeployment,
        result: EnactmentResult,
    ) -> Generator:
        """Move predecessor outputs to the activity's site via GridFTP."""
        start = self.sim.now
        target_ftp = self.vo.stack(deployment.site).gridftp
        for pred_id in schedule.workflow.predecessors(node.node_id):
            pred_site = schedule.site_of(pred_id)
            if pred_site == deployment.site:
                continue
            pred_node = schedule.workflow.nodes[pred_id]
            for item in pred_node.outputs:
                src_path = f"/scratch/wf/{schedule.workflow.name}/{item.name}"
                dst_path = f"/scratch/wf/{schedule.workflow.name}/{item.name}"
                src_fs = self.vo.stack(pred_site).site.fs
                if not src_fs.exists(src_path):
                    continue
                yield from target_ftp.fetch(pred_site, src_path, dst_path)
                result.bytes_staged += item.size
        return self.sim.now - start

    def _materialize_outputs(
        self, schedule: Schedule, node: ActivityNode, deployment: ActivityDeployment
    ) -> None:
        """Create the node's output files in the workflow scratch dir."""
        fs = self.vo.stack(deployment.site).site.fs
        for item in node.outputs:
            fs.put_file(
                f"/scratch/wf/{schedule.workflow.name}/{item.name}",
                size=item.size,
                created_at=self.sim.now,
            )


def run_workflow(
    vo: VirtualOrganization, workflow: Workflow, home_site: str
) -> Generator:
    """Convenience: map and enact in one call (sub-generator)."""
    scheduler = Scheduler(vo, home_site)
    schedule = yield from scheduler.map_workflow(workflow)
    engine = EnactmentEngine(vo, home_site)
    result = yield from engine.run(schedule)
    return result, schedule
