"""RDM background components: Index Monitor, Cache Refresher,
Deployment Status Monitor (paper §3.2/§3.3).

* **Index Monitor** — "periodically probes the GT4 Default Index to see
  whether it is a community index or local index.  A GLARE service on a
  site with community index becomes super-peer election coordinator".
  It re-runs the election when community membership changes.

* **Cache Refresher** — "updates cached resources if and when they
  change on the source Grid site.  Outdated resources are discarded
  automatically."  Change detection uses the ``LastUpdateTime``
  reference property of the source EPR (paper Fig. 6).

* **Deployment Status Monitor** — "checks the status of each locally
  registered activity deployment and updates its resource and endpoint
  reference": it verifies executables still exist on disk, refreshes
  the LUT, and flags vanished deployments as failed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from repro.glare.errors import CLIENT_ERRORS
from repro.glare.model import DeploymentKind, DeploymentStatus
from repro.mds.index import UPSTREAM_UNREACHABLE
from repro.net.interceptors import RetryPolicy
from repro.simkernel.primitives import Periodic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService

#: deadline policy for cache-revalidation RPC (sources answer fast or
#: are treated as temporarily unreachable; no retry — the next cycle
#: revisits them anyway)
LUT_RETRY = RetryPolicy.single(8.0)

#: what :meth:`CacheRefresher._ask` answers for an unreachable source
#: (``None`` is taken: it is the LUT of a resource that is gone)
_UNREACHABLE = object()


class Monitor(Periodic):
    """Base: a periodic background process owned by one RDM service.

    ``phase`` is the one-shot start offset before the first round: with
    hundreds of sites, a per-site deterministic phase (drawn from the
    seeded kernel RNG by the RDM on the scaled resolution plane) keeps
    the loops from firing in lockstep.
    """

    NAME = "monitor"

    def __init__(self, rdm: "GlareRDMService", interval: float) -> None:
        super().__init__(
            rdm.sim, interval, self._cycle, f"{self.NAME}:{rdm.node_name}"
        )
        self.rdm = rdm
        self.cycles = 0

    def _cycle(self) -> Generator:
        yield from self.tick()
        self.cycles += 1

    def tick(self) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError
        yield


class IndexMonitor(Monitor):
    """Probe the local Default Index; coordinate elections when root."""

    NAME = "index-monitor"

    def __init__(self, rdm: "GlareRDMService", interval: float = 20.0) -> None:
        super().__init__(rdm, interval)
        self._last_membership: List[str] = []

    def tick(self) -> Generator:
        index = self.rdm.node.services.get("mds-index")
        if index is None:
            return
        try:
            probe = yield from self.rdm.network.call(
                self.rdm.node_name, self.rdm.node_name, index.name, "probe"
            )
        except UPSTREAM_UNREACHABLE:
            return
        if not probe["community"]:
            return
        # I host the community index: I am the election coordinator.
        membership = yield from self.rdm.network.call(
            self.rdm.node_name, self.rdm.node_name, index.name, "list_sites"
        )
        if sorted(membership) != sorted(self._last_membership):
            self._last_membership = list(membership)
            yield from self.rdm.overlay.run_election(list(membership))


class CacheRefresher(Monitor):
    """Revalidate cached types/deployments against their source LUTs.

    One loop over both registries and one :meth:`_revalidate` per
    entry; the scaled resolution plane only changes how the source
    LUTs arrive — one ``get_lut`` per entry, or one
    ``get_lut_batch`` per (source site, service) pair, which makes the
    revalidation traffic O(distinct sources) instead of O(cached
    entries) for the same end state.
    """

    NAME = "cache-refresher"

    def __init__(self, rdm: "GlareRDMService", interval: float = 30.0) -> None:
        super().__init__(rdm, interval)
        self.refreshed = 0
        self.discarded = 0
        #: get_lut_batch RPCs issued (batched mode only)
        self.batched_rpcs = 0

    def tick(self) -> Generator:
        batched = self.rdm.resolution.scaled
        for registry in (self.rdm.atr, self.rdm.adr):
            by_source: dict = {}
            for key, source in list(registry.cache_sources.items()):
                if registry.cache.lookup(key) is None:
                    registry.drop_cached(key)  # the cached resource vanished
                elif batched:
                    by_source.setdefault((source.site, source.service), []).append(key)
                else:
                    lut = yield from self._ask(source.site, source.service, "get_lut", key)
                    if lut is not _UNREACHABLE:
                        yield from self._revalidate(registry, key, lut)
            for (site, service), keys in by_source.items():
                luts = yield from self._ask(site, service, "get_lut_batch", keys)
                if luts is not _UNREACHABLE:
                    self.batched_rpcs += 1
                    for key in keys:
                        yield from self._revalidate(registry, key, luts.get(key))

    def _revalidate(self, registry, key: str, lut) -> Generator:
        """Apply the source's current LUT to one cached entry (Fig. 6)."""
        source = registry.cache_sources.get(key)
        if source is None:
            return  # evicted while the LUT was in flight
        if lut is None:
            # the source dropped the resource: discard the stale copy
            registry.drop_cached(key)
            self.discarded += 1
        elif lut > source.last_update_time:
            wire = yield from self._ask(
                source.site, source.service, registry.FETCH_OP, key
            )
            if wire is not None and wire is not _UNREACHABLE:
                registry.cache_wire(wire)
                self.refreshed += 1

    def _ask(self, site: str, service: str, method: str, payload) -> Generator:
        """One revalidation RPC; ``_UNREACHABLE`` when the source gave
        no answer (offline, silent, shedding or faulted) — its copies
        are kept and the next cycle revisits them."""
        try:
            value = yield from self.rdm.network.call(
                self.rdm.node_name, site, service, method, payload=payload,
                retry=LUT_RETRY,
            )
        except CLIENT_ERRORS:
            return _UNREACHABLE
        return value


class DeploymentStatusMonitor(Monitor):
    """Verify local deployments and refresh their LUTs."""

    NAME = "deployment-status-monitor"

    def __init__(self, rdm: "GlareRDMService", interval: float = 25.0) -> None:
        super().__init__(rdm, interval)
        self.failures_detected = 0

    def tick(self) -> Generator:
        adr = self.rdm.adr
        fs = self.rdm.site.fs
        for key, deployment in list(adr.deployments.items()):
            healthy = (deployment.kind != DeploymentKind.EXECUTABLE
                       or fs.is_executable(deployment.path))
            yield from self.rdm.network.call(
                self.rdm.node_name, self.rdm.node_name,
                adr.name, "update_status",
                payload={
                    "key": key,
                    "status": (DeploymentStatus.ACTIVE if healthy
                               else DeploymentStatus.FAILED).value,
                },
            )
            if not healthy:
                self.failures_detected += 1
