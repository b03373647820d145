"""The mechanism boundary between the reconciler and the Grid.

The reconciler never talks to registries, handlers or GridFTP itself;
it drives the narrow :class:`Actuator` interface, and the production
implementation (:class:`RdmActuator`) maps each verb onto machinery the
Deployment Manager / RDM service already expose:

====================  ====================================================
verb                  mechanism
====================  ====================================================
``probe``             ``DeploymentManager.probe_sites`` (``site_info``)
``observe``           the ``report_observed`` RDM operation
``install``           ``DeploymentManager.rollout(target_sites=[site])``
``set_lifetime``      the ``set_deployment_lifetime`` RDM operation —
                      drain-by-WSRF: the replica's resource lifetime is
                      shortened and the site's
                      :class:`~repro.wsrf.lifetime.LifetimeManager`
                      garbage-collects it on the next sweep
``apply_spec``        the ``apply_spec`` RDM operation (replicates the
                      desired-state document VO-wide)
====================  ====================================================

Keeping the split here (policy above, mechanism below) is what lets the
planner/reconciler be unit-tested against a scripted fake actuator with
no simulator at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.glare.errors import CLIENT_ERRORS
from repro.net.interceptors import Overloaded
from repro.net.network import RpcTimeout
from repro.orchestrate.spec import DesiredState
from repro.simkernel.errors import OfflineError
from repro.site.description import SiteDescription

#: RPC failures the control loop absorbs (the site is skipped this
#: round and observed again next interval) — an overloaded frontend
#: shedding the observation probe is itself a scale-out signal the
#: planner picks up through the other replicas' gauges
_SKIPPABLE = (OfflineError, RpcTimeout, Overloaded)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService

__all__ = ["Actuator", "RdmActuator"]


class Actuator(ABC):
    """What the reconciler may do to the world — nothing else."""

    @abstractmethod
    def sites(self) -> Generator:
        """Yield-from: current VO membership (list of site names)."""

    @abstractmethod
    def probe(self, names: List[str]) -> Generator:
        """Yield-from: ``{name: SiteDescription}``, unreachables dropped."""

    @abstractmethod
    def observe(self, site: str, types: List[str]) -> Generator:
        """Yield-from: one site's gauges + placements, ``None`` if down.

        The wire shape is ``op_report_observed``'s return value:
        ``{"site", "load", "run_queue", "cores", "utilization",
        "shed_by_op", "deployments": {type: [keys]}}``.
        """

    @abstractmethod
    def install(self, type_name: str, site: str) -> Generator:
        """Yield-from: one replica of ``type_name`` onto ``site``.

        Returns the rollout leg status string (``"installed"`` /
        ``"present"`` / ``"failed"``).
        """

    @abstractmethod
    def set_lifetime(self, site: str, key: str, when: float) -> Generator:
        """Yield-from: shorten deployment ``key``'s WSRF lifetime."""

    @abstractmethod
    def apply_spec(self, state: DesiredState) -> Generator:
        """Yield-from: replicate the desired-state document; returns
        the number of sites that acknowledged it."""


class RdmActuator(Actuator):
    """Actuation through one (community) RDM service's existing ops."""

    #: per-attempt deadline for observation RPCs — a stuck site must
    #: not stall the whole control loop for a reconcile interval
    OBSERVE_TIMEOUT = 5.0

    def __init__(self, rdm: "GlareRDMService") -> None:
        self.rdm = rdm
        #: static attributes never change, so probe each site once
        self._descriptions: Dict[str, SiteDescription] = {}
        self.installs = 0
        self.drains = 0

    def sites(self) -> Generator:
        names = yield from self.rdm.known_sites()
        return names

    def probe(self, names: List[str]) -> Generator:
        missing = [n for n in names if n not in self._descriptions]
        if missing:
            probed = yield from self.rdm.deployment_manager.probe_sites(missing)
            self._descriptions.update(probed)
        return {n: self._descriptions[n] for n in names if n in self._descriptions}

    def observe(self, site: str, types: List[str]) -> Generator:
        try:
            report = yield from self.rdm.rpc(
                site, "report_observed", {"types": list(types)},
                timeout=self.OBSERVE_TIMEOUT,
            )
        except _SKIPPABLE:
            return None
        return report

    def install(self, type_name: str, site: str) -> Generator:
        try:
            activity_type = yield from self.rdm.request_manager.discover_type(
                type_name
            )
            if activity_type is None:
                return "failed"
            result = yield from self.rdm.deployment_manager.rollout(
                activity_type, target_sites=[site], fanout=1
            )
        except CLIENT_ERRORS:
            # a failed install is an observation for next round, never
            # a reason to kill the control loop; anything else is a bug
            return "failed"
        status = result["results"][0]["status"]
        if status == "installed":
            self.installs += 1
        return status

    def set_lifetime(self, site: str, key: str, when: float) -> Generator:
        try:
            result = yield from self.rdm.rpc(
                site, "set_deployment_lifetime", {"key": key, "at": when},
                timeout=self.OBSERVE_TIMEOUT,
            )
        except _SKIPPABLE:
            return False
        ok = bool(result.get("ok"))
        if ok:
            self.drains += 1
        return ok

    def apply_spec(self, state: DesiredState) -> Generator:
        names = yield from self.rdm.known_sites()
        wire = state.to_wire()
        acks = 0
        for name in names:
            try:
                result = yield from self.rdm.rpc(
                    name, "apply_spec", wire, timeout=self.OBSERVE_TIMEOUT
                )
            except _SKIPPABLE:
                continue
            if result.get("accepted"):
                acks += 1
        return acks
