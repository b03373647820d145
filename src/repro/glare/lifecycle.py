"""Activity lifecycle control: expiry cascade and deployment limits.

Paper §3.3: "An activity provider can control the lifecycle of an
activity type and its deployments by making a registration, cancelling
it or revoking for certain time.  Moreover, a provider can also specify
minimum and maximum limits of deployments of an activity and the GLARE
system ensures to fulfil the implied constraints.  If an activity type
expires, its deployments automatically expire, but an active (running)
deployment at expiration time completes its execution."

The maximum limit is enforced at registration time by the ADR (see
:meth:`ActivityDeploymentRegistry.add_local_deployment`); this module
adds the expiry sweeps, the type→deployment cascade, and the minimum
replica maintenance loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.simkernel.primitives import Periodic
from repro.wsrf.lifetime import LifetimeManager
from repro.wsrf.resource import WSResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService


class LifecycleController:
    """Per-site lifecycle machinery for one RDM service."""

    def __init__(
        self,
        rdm: "GlareRDMService",
        sweep_interval: float = 10.0,
        min_check_interval: float = 60.0,
        ensure_minimums: bool = False,
    ) -> None:
        self.rdm = rdm
        self.ensure_minimums = ensure_minimums
        self.lifetime = LifetimeManager(rdm.sim, interval=sweep_interval)
        self.lifetime.watch(rdm.atr.home, listener=self._on_type_expired)
        # an expired deployment only needs the registry's own removal
        self.lifetime.watch(rdm.adr.home, listener=rdm.adr.unpublish)
        self.cascaded_expiries = 0
        self.minimum_repairs = 0
        #: minimum-replica maintenance (started only with ``ensure_minimums``)
        self.minimums = Periodic(
            rdm.sim, min_check_interval, self._check_minimums,
            f"min-deployments:{rdm.node_name}",
        )

    @property
    def sim(self):
        return self.rdm.sim

    def start(self) -> None:
        self.lifetime.start()
        if self.ensure_minimums:
            self.minimums.start()

    def stop(self) -> None:
        self.lifetime.stop()
        self.minimums.stop()

    @property
    def running(self) -> bool:
        return self.lifetime.running or self.minimums.running

    # -- expiry listener ------------------------------------------------------

    def _on_type_expired(self, resource: WSResource) -> None:
        """Type expired: cascade onto its local deployments."""
        atr, adr = self.rdm.atr, self.rdm.adr
        atr.unpublish(resource)
        for deployment in list(adr.local_deployments_for(resource.key)):
            # "an active (running) deployment at expiration time
            # completes its execution" — GRAM jobs already in flight are
            # independent processes, so dropping the registration does
            # not interrupt them.
            adr.remove_local(deployment.key)
            self.cascaded_expiries += 1

    # -- expiry API (provider-facing) ---------------------------------------------

    def expire_type_at(self, type_name: str, when: float) -> None:
        """Schedule a local type's (and hence its deployments') expiry."""
        resource = self.rdm.atr.home.lookup(type_name)
        if resource is None:
            raise KeyError(f"no local type {type_name!r}")
        resource.set_termination_time(when)

    def expire_deployment_at(self, key: str, when: float) -> None:
        resource = self.rdm.adr.home.lookup(key)
        if resource is None:
            raise KeyError(f"no local deployment {key!r}")
        resource.set_termination_time(when)

    def revoke_type(self, type_name: str, until: float) -> None:
        """Temporarily revoke a type: it expires now, provider may
        re-register after ``until`` (tracked for the provider's use)."""
        self.expire_type_at(type_name, self.sim.now)
        self.lifetime.sweep_now()

    # -- minimum replica maintenance ----------------------------------------------------

    def _check_minimums(self) -> Generator:
        atr, adr = self.rdm.atr, self.rdm.adr
        for name in list(atr.local_type_names()):
            at = atr.hierarchy.get(name)
            if at is None or not at.installable or at.min_deployments <= 0:
                continue
            known = adr.all_deployments_for(name)
            missing = at.min_deployments - len(known)
            for _ in range(missing):
                try:
                    yield from self.rdm.deployment_manager.deploy_on_demand(at)
                    self.minimum_repairs += 1
                except Exception:
                    break  # try again next cycle
