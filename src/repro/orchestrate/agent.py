"""The per-site end of desired-state orchestration.

The reconciler runs in one place; what it observes and actuates is on
every site.  A :class:`SiteAgent` is that far end: the three RDM
operations the actuator calls and the replicated desired-state document
they write.  ``build_vo`` attaches one to every site's RDM service,
reconciler or not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.glare.model import DeploymentStatus
from repro.glare.registry import ADR_SERVICE
from repro.net.message import Message
from repro.net.service import Plane
from repro.orchestrate.spec import DeploymentSpec, DesiredState
from repro.simkernel.kernel import entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService
    from repro.orchestrate.reconciler import Reconciler

__all__ = ["SiteAgent"]


class SiteAgent(Plane):
    """Observation and actuation operations of one site's RDM service."""

    #: reconciliation traffic bypasses admission shedding (see
    #: :attr:`Service.CONTROL_OPS`) — the desired-state control loop
    #: must observe and drain exactly when the data plane is overloaded
    CONTROL_OPS = frozenset({
        "report_observed", "apply_spec", "set_deployment_lifetime",
    })

    name = "orchestrate"

    def __init__(self, rdm: "GlareRDMService") -> None:
        self.rdm = rdm
        #: replicated desired-state document; written only via
        #: ``op_apply_spec`` — the reconciler is the sole originator,
        #: so the document survives super-peer takeover on whichever
        #: site hosts the next reconciler
        self.desired_state: Optional[DesiredState] = None
        #: the VO's desired-state reconciler when it runs on this site
        #: (``build_vo`` places it on the community site), so it is one
        #: of this site's loops
        self.reconciler: Optional["Reconciler"] = None
        rdm.node.planes.append(self)

    def loops(self):
        return () if self.reconciler is None else (self.reconciler,)

    def invariants(self):
        """Once the reconciler's last round converged, each spec's live
        replicas (ACTIVE on an online site, not draining) are in bounds."""
        if self.reconciler is None:
            return
        rounds = entries(self.rdm.sim.journal, "orchestrate", "round")
        if not rounds or not rounds[-1]["converged"]:
            return
        adrs = [node.services[ADR_SERVICE]
                for node in self.rdm.network.nodes.values()
                if node.online and ADR_SERVICE in node.services]
        for spec in self.reconciler.specs:
            live = sum(
                1 for adr in adrs
                for deployment in adr.local_deployments_for(spec.type_name)
                if deployment.status == DeploymentStatus.ACTIVE
                and adr.home.lookup(deployment.key).termination_time is None)
            if not spec.min_replicas <= live <= spec.max_replicas:
                yield "replicas-in-bounds", (
                    f"{spec.type_name}: {live} live replicas, bounds "
                    f"[{spec.min_replicas}, {spec.max_replicas}]")

    def op_report_observed(self, message: Message) -> Generator:
        """One observation sample for the desired-state reconciler.

        Payload: ``{'types': [managed type names]}``.  Returns the live
        gauges (instantaneous busy slots / capacity, not the since-t=0
        average of ``op_site_load``) plus this site's admission-shed
        tallies and the local ACTIVE deployments of each listed type.
        """
        rdm = self.rdm
        payload = message.payload or {}
        types = payload.get("types", [])
        yield from rdm.compute(0.0005)
        cpu = rdm.site.cpu
        deployments = {
            name: sorted(
                d.key
                for d in rdm.adr.local_deployments_for(name)
                if d.status == DeploymentStatus.ACTIVE
            )
            for name in types
        }
        return {
            "site": rdm.node_name,
            "load": rdm.site.loadavg.value,
            "run_queue": cpu.run_queue_length,
            "cores": cpu.cores,
            "utilization": cpu.running / cpu.cores,
            "shed_by_op": dict(rdm.shed_by_op),
            "deployments": deployments,
        }

    def op_apply_spec(self, message: Message) -> Generator:
        """Revision-gated write of the replicated desired state.

        Payload is ``DesiredState.to_wire()``.  A revision at or below
        the one already held is rejected (guarded-accept, like
        ``op_shard_note``) so re-deliveries after a takeover are
        idempotent.  Returns ``{'accepted':, 'revision':}``.
        """
        wire = message.payload or {}
        yield from self.rdm.compute(0.0005)
        revision = int(wire.get("revision", 0))
        held = self.desired_state
        if held is not None and revision <= held.revision:
            return {"accepted": False, "revision": held.revision}
        specs = {}
        for spec_wire in wire.get("specs", []):
            spec = DeploymentSpec.from_wire(spec_wire)
            specs[spec.type_name] = spec
        self.desired_state = DesiredState(revision=revision, specs=specs)
        return {"accepted": True, "revision": revision}

    def op_set_deployment_lifetime(self, message: Message) -> Generator:
        """Shorten (or extend) a local deployment's WSRF lifetime.

        Payload: ``{'key':, 'at': absolute termination time}``.  The
        reconciler's scale-in path: the registration stays visible until
        the site's lifetime sweep garbage-collects it, so in-flight
        requests drain naturally over the grace window.
        """
        payload = message.payload
        yield from self.rdm.compute(0.0005)
        resource = self.rdm.adr.home.lookup(payload["key"])
        if resource is None:
            return {"ok": False, "error": f"no local deployment {payload['key']!r}"}
        resource.set_termination_time(float(payload["at"]))
        return {"ok": True, "at": float(payload["at"])}
