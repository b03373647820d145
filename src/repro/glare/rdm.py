"""The GLARE Registration, Deployment and Monitoring (RDM) service.

"The GLARE RDM service is the main frontend service which consists of
components including Request Manager, Deployment Manager, Cache
Refresher, Index Monitor and Deployment Status Monitor." (paper §3.2)

One RDM service runs on every Grid site, colocated with that site's
Activity Type Registry, Activity Deployment Registry, GridFTP endpoint
and Default Index.  Clients (schedulers, enactment engines) talk only
to their *local* RDM — "clients don't have to consider or remember a
centralized service" (§3.2, Local Access) — and the RDM resolves
requests through the super-peer overlay:

    local registries → group peers → super-peer → other super-peers

with each hop's results cached locally (two-level cache: site cache
and super-peer cache).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Generator, List, Optional

from repro.glare.errors import DeploymentNotFound, GlareError, TypeNotFound
from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
    InstallationSpec,
    TypeKind,
)
from repro.glare.provisioning import DeploymentManager, ProvisioningConfig
from repro.glare.registry import (
    ActivityDeploymentRegistry,
    ActivityTypeRegistry,
    ADR_SERVICE,
    ATR_SERVICE,
    deployment_to_wire,
    type_from_wire,
    type_to_wire,
    wire_site,
)
from repro.glare.resolution import ResolutionConfig, TypeDigest
from repro.glare.storage import HashRing, StorageConfig
from repro.glare.superpeer import OverlayManager, OverlayView
from repro.gram.jobs import JobSpec
from repro.gridftp.service import GridFtpService
from repro.mds.index import UPSTREAM_UNREACHABLE
from repro.net.interceptors import RetryPolicy
from repro.net.message import Message, Response
from repro.net.network import RpcTimeout
from repro.net.service import Service
from repro.simkernel.errors import OfflineError
from repro.simkernel.primitives import SingleFlight
from repro.site.gridsite import GridSite

RDM_SERVICE = "glare-rdm"


class RequestManager:
    """Discovery logic: local → peers → super-peer → other super-peers."""

    #: tier name (as reported by :meth:`_tier_delta`) -> counter attribute
    _TIER_ATTRS = {
        "local": "resolved_locally",
        "group": "resolved_in_group",
        "super-peer": "resolved_via_superpeer",
        "on-demand": "resolved_by_deployment",
    }

    def __init__(self, rdm: "GlareRDMService") -> None:
        self.rdm = rdm
        self.requests = 0
        self.resolved_locally = 0
        self.resolved_in_group = 0
        self.resolved_via_superpeer = 0
        self.resolved_by_deployment = 0
        #: in-flight resolution walks by (type, flags) key
        self._flights = SingleFlight(self.sim)
        self.singleflight_joined = 0
        #: fan-out targets whose RPC failed (timeout/offline/error),
        #: as opposed to answering with an empty result
        self.fanout_failures: Dict[str, int] = {}

    @property
    def sim(self):
        return self.rdm.sim

    # -- local knowledge (no RPC) ------------------------------------------------

    def local_lookup(self, type_name: str) -> Dict[str, List[Dict]]:
        """Everything this site knows about ``type_name`` right now.

        The answer carries the *full relevant hierarchy slice* — the
        requested type, its concrete descendants, and every ancestor
        linking them — so a remote site caching the result can rebuild
        the abstract→concrete resolution path locally.
        """
        atr, adr = self.rdm.atr, self.rdm.adr
        type_wires: List[Dict] = []
        deployment_wires: List[Dict] = []
        # A site can contribute even when it never registered the
        # requested name itself: a locally known concrete type may list
        # the requested (remote) type among its base types, and the
        # hierarchy tracks those dangling edges.  This is how a type
        # "registered dynamically with one site can be discovered
        # automatically by other sites" when the abstract ancestor and
        # the concrete descendant live on different sites.
        concrete = atr.hierarchy.concrete_types_for(type_name)
        if atr.find_type(type_name) is not None or concrete:
            relevant: List[str] = (
                [type_name] if atr.hierarchy.get(type_name) is not None else []
            )
            for at in concrete:
                if at.name not in relevant:
                    relevant.append(at.name)
                for ancestor in atr.hierarchy.ancestors(at.name):
                    if ancestor not in relevant:
                        relevant.append(ancestor)
            for name in relevant:
                node = atr.hierarchy.get(name)
                if node is None:
                    continue  # dangling base-type reference
                epr = atr.authoritative_epr(name) or atr._epr_for(name)
                type_wires.append(type_to_wire(node, epr))
            for at in concrete:
                for deployment in adr.all_deployments_for(at.name):
                    epr_d = (
                        adr.cache_sources.get(deployment.key)
                        or adr._epr_for(deployment.key)
                    )
                    deployment_wires.append(deployment_to_wire(deployment, epr_d))
        return {"types": type_wires, "deployments": deployment_wires}

    def local_claims(self) -> List[str]:
        """Every type name this site can answer ``local_lookup`` for.

        That is: known type names (authoritative and cached) plus their
        ancestors — :meth:`local_lookup` answers for an ancestor name
        through the hierarchy's dangling-edge tracking — plus the type
        names of known deployments.  This is the claim set a member
        pushes into its super-peer's digest.
        """
        atr, adr = self.rdm.atr, self.rdm.adr
        claims: set = set()
        for name in atr.home.keys() + atr.cache.keys():
            claims.add(name)
            claims.update(atr.hierarchy.ancestors(name))
        for type_name, keys in adr.by_type.items():
            if keys:
                claims.add(type_name)
                # a cached deployment's type may be unknown locally
                if atr.hierarchy.get(type_name) is not None:
                    claims.update(atr.hierarchy.ancestors(type_name))
        return sorted(claims)

    def _cache_results(self, result: Dict[str, List[Dict]]) -> None:
        """Fold remote lookup results into the local caches.

        An authoritative local copy wins, and the wire metadata says so
        without a parse: a type wire carries its ``name``, and the EPR
        key *is* the deployment key ("site:name") for every wire the
        registries emit.
        """
        atr, adr = self.rdm.atr, self.rdm.adr
        for wire in result.get("types", []):
            if atr.home.lookup(wire["name"]) is None:
                atr.cache_wire(wire)
        for wire in result.get("deployments", []):
            if wire["epr"]["key"] not in adr.deployments:
                adr.cache_wire(wire)

    # -- fan-out helpers -------------------------------------------------------------

    def _safe_rpc(self, site: str, method: str, payload: Any,
                  timeout: float = 20.0) -> Generator:
        try:
            value = yield from self.rdm.rpc(site, method, payload, timeout=timeout)
            return value
        except (OfflineError, RpcTimeout, GlareError):
            return None

    def fanout(self, sites: List[str], method: str, payload: Any) -> Generator:
        """Query several sites in parallel; drop the failures."""
        labeled = yield from self.fanout_labeled(sites, method, payload)
        return [value for _, value in labeled]

    def fanout_labeled(self, sites: List[str], method: str,
                       payload: Any) -> Generator:
        """Like :meth:`fanout`, but yields ``(site, value)`` pairs.

        Failed targets (offline, timed out, errored — as opposed to
        answering with an empty result) are counted per site in
        :attr:`fanout_failures` and on the ``glare.fanout_failures``
        obs counter, then dropped.
        """
        procs = [
            self.sim.process(self._safe_rpc(site, method, payload),
                             name=f"fanout:{method}->{site}")
            for site in sites
        ]
        if procs:
            yield self.sim.all_of(procs)
        labeled: List[tuple] = []
        for site, proc in zip(sites, procs):
            if proc.ok and proc.value is not None:
                labeled.append((site, proc.value))
            else:
                self.fanout_failures[site] = self.fanout_failures.get(site, 0) + 1
                self.rdm.obs.metrics.counter(
                    "glare.fanout_failures",
                    site=self.rdm.node_name, target=site,
                ).inc()
        return labeled

    # -- the main resolution walk -------------------------------------------------------

    def get_deployments(self, type_name: str, auto_deploy: bool = True,
                        exclude_sites: tuple = ()) -> Generator:
        """Paper Example 3: resolve a type to usable deployment wires.

        ``exclude_sites`` lets a client (e.g. an enactment engine
        re-mapping after a site failure) rule out deployments on known
        failed sites — including for any fresh on-demand installation.
        """
        self.requests += 1
        obs = self.rdm.obs
        if not obs.enabled:
            wires = yield from self._resolve_entry(type_name, auto_deploy, exclude_sites)
            return wires
        started = self.sim.now
        before = self._tier_counters()
        with obs.tracer.span(
            "glare:get_deployments", type=type_name, site=self.rdm.node_name
        ) as span:
            wires = yield from self._resolve_entry(type_name, auto_deploy, exclude_sites)
            tier = self._tier_delta(before)
            span.set_attr("tier", tier)
            span.set_attr("deployments", len(wires))
            obs.metrics.counter("glare.resolutions", tier=tier).inc()
            obs.metrics.histogram("glare.get_deployments", tier=tier).observe(
                self.sim.now - started
            )
        return wires

    def _tier_counters(self) -> tuple:
        return (self.resolved_locally, self.resolved_in_group,
                self.resolved_via_superpeer, self.resolved_by_deployment)

    def _tier_delta(self, before: tuple) -> str:
        """Which resolution counter moved since ``before`` was captured."""
        names = ("local", "group", "super-peer", "on-demand")
        for name, was, now in zip(names, before, self._tier_counters()):
            if now > was:
                return name
        return "unresolved"

    def _resolve_entry(self, type_name: str, auto_deploy: bool = True,
                       exclude_sites: tuple = ()) -> Generator:
        """Singleflight gate in front of :meth:`_resolve`.

        With coalescing enabled, concurrent identical resolutions on
        this site join the walk already in flight and share its result
        (bumping the same tier counter the leader's walk hit, so
        per-request tier accounting still adds up).  A failed leading
        walk is *not* shared: its error may be specific to the leader's
        timing, so each follower falls back to its own walk.
        """
        if not self.rdm.resolution.singleflight:
            wires = yield from self._resolve(type_name, auto_deploy, exclude_sites)
            return wires

        def lead() -> Generator:
            before = self._tier_counters()
            wires = yield from self._resolve(type_name, auto_deploy, exclude_sites)
            return wires, self._tier_delta(before)

        key = (type_name, bool(auto_deploy), tuple(sorted(exclude_sites)))
        led, ok, value = yield from self._flights.run(key, lead)
        if led:
            return value[0]
        self.singleflight_joined += 1
        self.rdm.obs.metrics.counter(
            "glare.singleflight_joined", site=self.rdm.node_name
        ).inc()
        if not ok:
            wires = yield from self._resolve(type_name, auto_deploy, exclude_sites)
            return wires
        wires, tier = value
        attr = self._TIER_ATTRS.get(tier)
        if attr is not None:
            setattr(self, attr, getattr(self, attr) + 1)
        return list(wires)

    def _resolve(self, type_name: str, auto_deploy: bool = True,
                 exclude_sites: tuple = ()) -> Generator:
        """The resolution walk itself (see :meth:`get_deployments`)."""
        tracer = self.rdm.obs.tracer
        excluded = set(exclude_sites)

        def _usable(wires):
            if not excluded:
                return wires
            return [w for w in wires if wire_site(w) not in excluded]

        # With caching enabled, local knowledge (authoritative + cached)
        # short-circuits the walk.  With caching disabled, every request
        # must gather the full deployment list from the distributed
        # registries — this is exactly the contrast paper Fig. 12
        # measures (cache on vs off over 1/3/7 sites).
        cache_on = self.rdm.adr.cache_enabled
        with tracer.span("tier:local", type=type_name):
            local = self.local_lookup(type_name)
        if cache_on and _usable(local["deployments"]):
            self.resolved_locally += 1
            return _usable(local["deployments"])

        view = self.rdm.overlay.view
        me = self.rdm.node_name
        gathered = [local]

        # iterative lookup across my group
        peers = [s for s in view.peers_of(me)]
        if peers:
            with tracer.span("tier:group", peers=len(peers)):
                results = yield from self.fanout(
                    peers, "local_lookup", {"type": type_name}
                )
            gathered.extend(results)
            merged = _merge(gathered)
            self._cache_results(merged)
            # the fan-out gathered every group member's entries, so the
            # merged set is complete for this group with or without cache
            if _usable(merged["deployments"]):
                self.resolved_in_group += 1
                return _usable(merged["deployments"])

        # super-peer escalation
        sp_result: Optional[Dict] = None
        if self.rdm.overlay.is_super_peer:
            with tracer.span("tier:super-peer", role="super-peer"):
                sp_result = yield from self.super_peer_lookup(
                    type_name, forwarded=False
                )
        elif view.super_peer and view.super_peer != me:
            with tracer.span("tier:super-peer", via=view.super_peer):
                sp_result = yield from self._safe_rpc(
                    view.super_peer, "sp_lookup",
                    {"type": type_name, "forwarded": False}, timeout=30.0,
                )
        if sp_result:
            gathered.append(sp_result)
            self._cache_results(sp_result)
        merged = _merge(gathered)
        if _usable(merged["deployments"]):
            if sp_result and _usable(sp_result["deployments"]):
                self.resolved_via_superpeer += 1
            else:
                self.resolved_in_group += 1
            return _usable(merged["deployments"])

        # nothing deployed anywhere: on-demand deployment
        if auto_deploy:
            with tracer.span("tier:on-demand", type=type_name):
                concrete = self._pick_installable(type_name, gathered)
                if concrete is None:
                    discovered = yield from self.discover_type(type_name)
                    if discovered is not None:
                        concrete = (
                            self._pick_installable(type_name, gathered)
                            or (discovered if discovered.installable else None)
                        )
                if concrete is not None:
                    wires = yield from self.rdm.deployment_manager.deploy_on_demand(
                        concrete, exclude_sites=tuple(excluded)
                    )
                    self.resolved_by_deployment += 1
                    return wires
        if self.rdm.atr.find_type(type_name) is None:
            raise TypeNotFound(f"activity type {type_name!r} unknown in the VO")
        raise DeploymentNotFound(
            f"no deployment for {type_name!r} and on-demand installation "
            "was not possible"
        )

    def super_peer_lookup(self, type_name: str, forwarded: bool) -> Generator:
        """Super-peer body: own group first, then the super group.

        With content digests enabled (:class:`ResolutionConfig`), the
        member fan-out narrows to members whose claim notes cover the
        type (only once every member has delivered its bulk note for
        the current epoch), the cross-group escalation targets only
        super-peers whose groups claim the type (falling back to the
        full broadcast when the targeted query comes back empty), and a
        full broadcast that finds nothing parks the type in a TTL-bound
        negative cache.
        """
        digest = self.rdm.digest if self.rdm.overlay.is_super_peer else None
        result = self.local_lookup(type_name)
        if result["deployments"]:
            return result
        view = self.rdm.overlay.view
        me = self.rdm.node_name
        members = [s for s in view.member_sites() if s != me]
        if digest is not None:
            claimed = digest.members_for(type_name, members)
            if claimed is not None:
                digest.member_skips += len(members) - len(claimed)
                members = claimed
        if members:
            results = yield from self.fanout(members, "local_lookup", {"type": type_name})
            merged = _merge([result] + results)
            self._cache_results(merged)  # the super-peer cache level
            if merged["deployments"]:
                return merged
            result = merged
        if not forwarded:
            ttl = self.rdm.resolution.negative_ttl
            if (digest is not None and ttl > 0
                    and digest.is_missing(type_name, self.sim.now)):
                digest.negative_hits += 1
                self.rdm.obs.metrics.counter(
                    "glare.negative_cache_hits", site=me
                ).inc()
                return result
            others = self.rdm.overlay.other_super_peers()
            # Shard routing: one RPC to the type's directory owner
            # replaces the all-super-peers broadcast.  An owner whose
            # answer is empty (handoff window, stale directory, owner
            # down) falls through to the broadcast below, so routing
            # never shrinks the result set.
            ring = self.rdm.shard_ring
            if ring is not None and len(ring) > 1 and others:
                owner = ring.route(type_name)
                if owner != me and owner in set(others):
                    value = yield from self._safe_rpc(
                        owner, "shard_lookup", {"type": type_name},
                        timeout=30.0,
                    )
                    if value and value.get("deployments"):
                        self.rdm.shard_route_hits += 1
                        merged = _merge([result, value])
                        self._cache_results(merged)
                        return merged
                    self.rdm.shard_fallbacks += 1
                    if value:
                        result = _merge([result, value])
            targeted = digest.groups_for(type_name) if digest is not None else None
            if targeted is not None:
                candidates = [s for s in targeted if s in set(others)]
                if candidates:
                    digest.group_hits += 1
                    labeled = yield from self.fanout_labeled(
                        candidates, "sp_lookup",
                        {"type": type_name, "forwarded": True},
                    )
                    hits = []
                    for sp_site, value in labeled:
                        if value and value.get("deployments"):
                            digest.learn_group(type_name, sp_site)
                            hits.append(value)
                        else:
                            digest.forget_group(type_name, sp_site)
                    merged = _merge([result] + hits)
                    if merged["deployments"]:
                        self._cache_results(merged)
                        return merged
                    # every claimed group came back empty: the digest
                    # was stale — fall through to the full broadcast so
                    # targeting never shrinks the result set
                    others = [s for s in others if s not in set(candidates)]
                    result = merged
            if others:
                labeled = yield from self.fanout_labeled(
                    others, "sp_lookup", {"type": type_name, "forwarded": True}
                )
                if digest is not None:
                    for sp_site, value in labeled:
                        if value and value.get("deployments"):
                            digest.learn_group(type_name, sp_site)
                merged = _merge([result] + [value for _, value in labeled])
                self._cache_results(merged)
                if (digest is not None and ttl > 0
                        and not merged["deployments"]):
                    digest.note_missing(type_name, self.sim.now, ttl)
                return merged
        return result

    def shard_lookup(self, type_name: str) -> Generator:
        """Directory-owner body of a routed cross-group lookup.

        This site owns ``type_name``'s slice of the shard directory:
        its digest holds the set of super-peer groups claiming the
        type (fed by ``shard_note`` hand-offs).  Answer from the own
        group first, then fan out only to the claiming groups — the
        caller handles the empty-answer fallback.
        """
        digest = self.rdm.digest
        result = yield from self.super_peer_lookup(type_name, forwarded=True)
        if result["deployments"]:
            return result
        others = self.rdm.overlay.other_super_peers()
        targeted = digest.groups_for(type_name) if digest is not None else None
        if targeted:
            candidates = [s for s in targeted if s in set(others)]
            if candidates:
                labeled = yield from self.fanout_labeled(
                    candidates, "sp_lookup",
                    {"type": type_name, "forwarded": True},
                )
                for sp_site, value in labeled:
                    if value and value.get("deployments"):
                        digest.learn_group(type_name, sp_site)
                    else:
                        digest.forget_group(type_name, sp_site)
                merged = _merge([result] + [v for _, v in labeled])
                if merged["deployments"]:
                    self._cache_results(merged)
                return merged
        return result

    def discover_type(self, type_name: str) -> Generator:
        """Locate a type description anywhere in the VO (no deployments)."""
        at = self.rdm.atr.find_type(type_name)
        if at is not None:
            return at
        view = self.rdm.overlay.view
        me = self.rdm.node_name
        search_space = [s for s in view.peers_of(me)]
        if not self.rdm.overlay.is_super_peer and view.super_peer:
            search_space.append(view.super_peer)
        results = yield from self.fanout(
            search_space, "local_lookup", {"type": type_name}
        )
        merged = _merge(results)
        self._cache_results(merged)
        at = self.rdm.atr.find_type(type_name)
        if at is not None:
            return at
        # escalate through the super group: either directly (when this
        # site is a super-peer) or via this group's super-peer, which
        # forwards to the others
        if self.rdm.overlay.is_super_peer:
            sp_merged = yield from self.super_peer_lookup(type_name, forwarded=False)
            self._cache_results(sp_merged)
            merged = _merge([merged, sp_merged])
        elif view.super_peer and view.super_peer != me:
            sp_result = yield from self._safe_rpc(
                view.super_peer, "sp_lookup",
                {"type": type_name, "forwarded": False}, timeout=30.0,
            )
            if sp_result:
                self._cache_results(sp_result)
                merged = _merge([merged, sp_result])
        at = self.rdm.atr.find_type(type_name)
        if at is not None:
            return at
        # caching may be disabled: answer from the gathered wires directly
        for wire in merged.get("types", []):
            candidate = type_from_wire(wire)
            if candidate.name == type_name:
                return candidate
        return None

    def _pick_installable(
        self, type_name: str, gathered: Optional[List[Dict]] = None
    ) -> Optional[ActivityType]:
        """The concrete installable descendant GLARE would deploy.

        Prefers the local hierarchy (which, with caching on, absorbed
        every wire the walk returned); with caching *off* the gathered
        wire sets are consulted directly, since nothing was retained.
        """
        atr = self.rdm.atr
        candidates = atr.hierarchy.concrete_types_for(type_name)
        for at in candidates:
            if at.installable:
                return at
        if gathered:
            from repro.glare.hierarchy import TypeHierarchy

            scratch = TypeHierarchy()
            for at in atr.hierarchy.all_types():
                scratch.add(at)
            for result in gathered:
                if not result:
                    continue
                for wire in result.get("types", []):
                    # wire metadata fast path: type definitions are
                    # VO-wide consistent, so a name already present in
                    # the scratch hierarchy need not be re-parsed
                    name = wire.get("name")
                    if name is not None and scratch.get(name) is not None:
                        continue
                    try:
                        scratch.add(type_from_wire(wire))
                    except (GlareError, ValueError):
                        continue  # this wire does not decode: not a candidate
            for at in scratch.concrete_types_for(type_name):
                if at.installable:
                    return at
        return None


def _merge(results: List[Optional[Dict]]) -> Dict[str, List[Dict]]:
    """Union lookup results, de-duplicated by resource key."""
    types: Dict[str, Dict] = {}
    deployments: Dict[str, Dict] = {}
    for result in results:
        if not result:
            continue
        for wire in result.get("types", []):
            types.setdefault(wire["epr"]["key"], wire)
        for wire in result.get("deployments", []):
            deployments.setdefault(wire["epr"]["key"], wire)
    return {"types": list(types.values()), "deployments": list(deployments.values())}


class GlareRDMService(Service):
    """The per-site GLARE frontend (see module docstring).

    Parameters
    ----------
    site:
        The :class:`GridSite` this RDM runs on.
    atr / adr / gridftp:
        Colocated registries and transfer endpoint.
    handler:
        Default deployment handler: ``"expect"`` or ``"javacog"``.
    community_site / community_index_service:
        Where the VO-root community index lives (site discovery).
    """

    SERVICE_NAME = RDM_SERVICE

    #: reconciliation traffic bypasses admission shedding (see
    #: :attr:`Service.CONTROL_OPS`) — the desired-state control loop
    #: must observe and drain exactly when the data plane is overloaded
    CONTROL_OPS = frozenset({
        "report_observed", "apply_spec", "set_deployment_lifetime",
    })

    def __init__(
        self,
        network,
        site: GridSite,
        atr: ActivityTypeRegistry,
        adr: ActivityDeploymentRegistry,
        gridftp: GridFtpService,
        handler: str = "expect",
        community_site: Optional[str] = None,
        community_index_service: str = "mds-index",
        group_size: int = 3,
        request_demand: float = 0.002,
        resolution: Optional[ResolutionConfig] = None,
        provisioning: Optional[ProvisioningConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
        storage: Optional[StorageConfig] = None,
    ) -> None:
        super().__init__(network, site.name)
        #: default retry policy for this RDM's outbound RPC (``None``
        #: keeps the legacy single-attempt behaviour, byte-identical)
        self.retry_policy = retry_policy
        self.site = site
        self.atr = atr
        self.adr = adr
        self.gridftp = gridftp
        self.community_site = community_site
        self.community_index_service = community_index_service
        self.request_demand = request_demand
        self.resolution = resolution if resolution is not None else ResolutionConfig()
        self.provisioning = (
            provisioning if provisioning is not None else ProvisioningConfig()
        )
        self.storage = storage if storage is not None else StorageConfig()

        self.request_manager = RequestManager(self)
        self.deployment_manager = DeploymentManager(
            self, handler=handler, config=self.provisioning
        )
        self.overlay = OverlayManager(self, group_size=group_size)
        #: super-peer content digest (only populated while this site
        #: holds the super-peer role; ``None`` when the feature is off).
        #: Shard routing reuses the digest as its directory slice, so
        #: enabling routing enables the digest machinery too.
        self.digest: Optional[TypeDigest] = (
            TypeDigest()
            if self.resolution.digests or self.storage.routing
            else None
        )
        #: consistent-hash ring over the current view's super-peers —
        #: the shard-routing table (``None`` until a view lands, or
        #: when routing is off)
        self.shard_ring: Optional[HashRing] = None
        #: type names already announced to their ring owners this view
        self._forwarded_claims: set = set()
        self.shard_route_hits = 0
        self.shard_fallbacks = 0
        self.shard_handoffs = 0
        if self.digest is not None:
            self.overlay.on_view_applied = self._on_view_applied
            self.atr.on_local_registration = self._note_local_claims
            self.adr.on_local_registration = self._note_local_claims
        from repro.glare.semantics import SemanticIndex
        from repro.glare.undeploy import Undeployer
        from repro.glare.wrapper import WrapperGenerator

        self.undeployer = Undeployer(self)
        self.wrapper_generator = WrapperGenerator(self)
        self.semantic_index = SemanticIndex(self.atr.hierarchy)
        self.admin_notifications: List[Dict] = []
        self._monitors: List = []
        #: replicated desired-state document (orchestration); written
        #: only via ``op_apply_spec`` — the reconciler is the sole
        #: originator, so the document survives super-peer takeover on
        #: whichever site hosts the next reconciler
        self.desired_state = None  # Optional[repro.orchestrate.spec.DesiredState]

    # -- plumbing -----------------------------------------------------------------

    def rpc(self, dst: str, method: str, payload: Any = None,
            timeout: Optional[float] = None,
            retry: Optional[RetryPolicy] = None) -> Generator:
        """RPC to another site's RDM service.

        Runs under ``retry`` (or this RDM's default
        :attr:`retry_policy`); ``timeout`` fills in the per-attempt
        deadline when the policy lacks one.  With neither set, the
        call is a plain single attempt.
        """
        policy = retry if retry is not None else self.retry_policy
        if timeout is not None:
            if policy is None:
                policy = RetryPolicy.single(timeout)
            else:
                # an explicit per-call deadline overrides the policy's
                # own per-attempt timeout (probe deadlines stay exact)
                policy = dataclasses.replace(policy, per_try_timeout=timeout)
        return self.network.call(
            self.node_name, dst, RDM_SERVICE, method, payload=payload,
            retry=policy,
        )

    def rpc_local_adr_register(self, deployment: ActivityDeployment,
                               type_xml: Optional[str] = None) -> Generator:
        """Register a deployment in this site's own ADR (loopback RPC)."""
        result = yield from self.network.call(
            self.node_name, self.node_name, ADR_SERVICE, "register_deployment",
            payload={"xml": deployment.wire_xml(), "type_xml": type_xml},
        )
        return result

    def known_sites(self) -> Generator:
        """VO membership: community index if available, else overlay view."""
        if self.community_site is not None:
            try:
                sites = yield from self.network.call(
                    self.node_name, self.community_site,
                    self.community_index_service, "list_sites",
                    retry=(self.retry_policy or RetryPolicy()).with_per_try(10.0),
                )
                if sites:
                    return list(sites)
            except UPSTREAM_UNREACHABLE:
                pass
        view = self.overlay.view
        fallback = set(view.member_sites()) | set(view.super_peers) | {self.node_name}
        return sorted(fallback)

    def deployfile_source(self, url: str) -> str:
        """Textual content of a published deploy-file."""
        return self.gridftp.url_catalog.content(url)

    # -- digest maintenance (ResolutionConfig.digests) ---------------------------------

    def _on_view_applied(self, view: OverlayView) -> None:
        """A new overlay view landed (election or takeover).

        Super-peer: the digest resets to the new epoch — every claim
        learned under the old grouping is invalid.  Member: push a full
        (bulk) claim note so the super-peer can rebuild absence trust.
        With shard routing on, the ring is rebuilt over the new view's
        super-peers and this site's slice of the directory is handed
        off: claims are re-announced to their (possibly new) owners.
        """
        if self.digest is not None and view.role == "super-peer":
            self.digest.reset(view.epoch)
        if self.storage.routing:
            sps = sorted(view.super_peers)
            self.shard_ring = (
                HashRing(
                    sps,
                    virtual_nodes=self.storage.virtual_nodes,
                    seed=self.storage.seed,
                )
                if sps
                else None
            )
            self._forwarded_claims.clear()
            if view.role == "super-peer":
                self.sim.process(
                    self._send_shard_notes(self.request_manager.local_claims()),
                    name=f"shard-handoff:{self.node_name}",
                )
        if view.role == "peer" and view.super_peer and view.super_peer != self.node_name:
            self.sim.process(
                self._send_digest_note(full=True),
                name=f"digest-note:{self.node_name}",
            )

    def _note_local_claims(self, type_name: str) -> None:
        """Registration hook: piggyback new claims onto the digest.

        Called synchronously by the colocated registries whenever a
        type or deployment is registered authoritatively on this site.
        """
        claims = [type_name]
        if self.atr.hierarchy.get(type_name) is not None:
            claims.extend(self.atr.hierarchy.ancestors(type_name))
        if self.digest is not None and self.overlay.is_super_peer:
            # a super-peer consults its own registries before any
            # fan-out, so only the negative cache needs clearing —
            # plus, with routing on, announcing the new claims to
            # their ring owners
            for name in claims:
                self.digest.clear_missing(name)
            if self.storage.routing:
                self.sim.process(
                    self._send_shard_notes(claims),
                    name=f"shard-note:{self.node_name}",
                )
            return
        view = self.overlay.view
        if view.role == "peer" and view.super_peer:
            self.sim.process(
                self._send_digest_note(full=False, claims=claims),
                name=f"digest-note:{self.node_name}",
            )

    #: retry cadence/budget for refused or failed shard notes: covers
    #: the overlay-formation window where a targeted owner has not
    #: applied its view yet (or resets its digest just after the note
    #: lands) without ever retrying forever into a dead node
    SHARD_NOTE_RETRY_DELAY = 2.0
    SHARD_NOTE_RETRY_LIMIT = 5

    def _send_shard_notes(self, claims: List[str],
                          attempt: int = 0) -> Generator:
        """Detached process: announce claims to their ring-owner SPs.

        Only *acknowledged* claims count as forwarded: group views land
        at different times, so a note can reach an owner before that
        owner is a routing-enabled super-peer (it refuses) or just
        before its own view-apply wipes the digest (it acknowledges a
        claim that no longer exists).  Refused and failed claims are
        retried on a fixed cadence with a bounded budget; a claim still
        undelivered after the budget only costs directory coverage —
        lookups fall back to the loss-free broadcast, so results never
        shrink.  The forwarded set clears on every view change, which
        also restarts the announcement from scratch against the new
        ring.
        """
        ring = self.shard_ring
        if ring is None or len(ring) < 2 or not self.overlay.is_super_peer:
            return
        by_owner: Dict[str, List[str]] = {}
        for name in claims:
            if name in self._forwarded_claims:
                continue
            owner = ring.route(name)
            if owner == self.node_name:
                self._forwarded_claims.add(name)
                continue  # my own digest is the slice for this name
            by_owner.setdefault(owner, []).append(name)
        pending: List[str] = []
        for owner in sorted(by_owner):
            names = by_owner[owner]
            self.shard_handoffs += len(names)
            try:
                result = yield from self.rpc(
                    owner, "shard_note",
                    {"site": self.node_name, "claims": names},
                    timeout=10.0,
                )
            except (OfflineError, RpcTimeout, GlareError):
                result = None
            if result and result.get("accepted"):
                self._forwarded_claims.update(names)
            else:
                pending.extend(names)
        if pending and attempt < self.SHARD_NOTE_RETRY_LIMIT:
            ring_before = self.shard_ring

            def retry() -> Generator:
                yield self.sim.timeout(self.SHARD_NOTE_RETRY_DELAY)
                # a view change already re-announces against the new
                # ring; only retry while ours is still current
                if self.shard_ring is ring_before:
                    yield from self._send_shard_notes(
                        pending, attempt=attempt + 1)

            self.sim.process(
                retry(), name=f"shard-note-retry:{self.node_name}")

    def _send_digest_note(self, full: bool,
                          claims: Optional[List[str]] = None) -> Generator:
        """Detached process: deliver a claim note to my super-peer."""
        view = self.overlay.view
        target = view.super_peer
        if not target or target == self.node_name:
            return
        payload = {
            "site": self.node_name,
            "claims": claims if claims is not None
            else self.request_manager.local_claims(),
            "epoch": view.epoch,
            "full": full,
        }
        try:
            yield from self.rpc(target, "digest_note", payload, timeout=10.0)
        except (OfflineError, RpcTimeout, GlareError):
            pass  # best-effort: a lost note only costs digest coverage

    def start(self, monitors: bool = True) -> None:
        """Launch the RDM's background components (idempotent)."""
        if monitors and not self._monitors:
            from repro.glare.monitors import (
                CacheRefresher,
                DeploymentStatusMonitor,
                IndexMonitor,
            )

            for monitor in (
                IndexMonitor(self),
                CacheRefresher(self),
                DeploymentStatusMonitor(self),
            ):
                if self.resolution.monitor_jitter:
                    # deterministic per-(site, monitor) phase offset so
                    # hundreds of loops don't tick in lockstep
                    monitor.phase = self.sim.rng.uniform(
                        f"monitor-jitter:{self.node_name}:{monitor.NAME}",
                        0.0, monitor.interval,
                    )
                monitor.start()
                self._monitors.append(monitor)

    def stop(self) -> None:
        for monitor in self._monitors:
            monitor.stop()
        self._monitors.clear()
        self.overlay.detector.stop()

    @property
    def running(self) -> bool:
        """True while a monitor or the overlay's failure detector runs."""
        return self.overlay.detector.running or any(
            monitor.running for monitor in self._monitors
        )

    # -- client-facing operations -----------------------------------------------------

    def op_get_deployments(self, message: Message) -> Generator:
        """Example 3's entry point: type name -> deployment references."""
        payload = message.payload
        if isinstance(payload, str):
            type_name, auto_deploy, exclude = payload, True, ()
        else:
            type_name = payload["type"]
            auto_deploy = payload.get("auto_deploy", True)
            exclude = tuple(payload.get("exclude_sites", ()))
        yield from self.compute(self.request_demand)
        wires = yield from self.request_manager.get_deployments(
            type_name, auto_deploy=auto_deploy, exclude_sites=exclude
        )
        return Response(value=wires, size=sum(len(w["xml"]) for w in wires) or 128)

    def op_get_template(self, message: Message) -> Generator:
        """Skeleton activity-type XML for providers (paper Example 2:
        "Transfer template xml from local GLARE service")."""
        name = message.payload or "MyActivity"
        yield from self.compute(0.001)
        template = ActivityType(
            name=str(name),
            kind=TypeKind.CONCRETE,
            domain="my-domain",
            installation=InstallationSpec(
                mode="on-demand",
                constraints={"platform": "Intel", "os": "Linux"},
                deploy_file_url="http://example.org/deployfiles/my.build",
            ),
        )
        return Response(value=template.wire_xml())

    def op_register_type(self, message: Message) -> Generator:
        """Example 2: register an activity type with the *local* service."""
        yield from self.compute(self.request_demand)
        result = yield from self.network.call(
            self.node_name, self.node_name, ATR_SERVICE, "register_type",
            payload=message.payload,
        )
        return result

    def op_register_deployment(self, message: Message) -> Generator:
        yield from self.compute(self.request_demand)
        result = yield from self.network.call(
            self.node_name, self.node_name, ADR_SERVICE, "register_deployment",
            payload=message.payload,
        )
        return result

    def op_lookup_type(self, message: Message) -> Generator:
        """Find a type description anywhere in the VO."""
        yield from self.compute(self.request_demand)
        at = yield from self.request_manager.discover_type(message.payload)
        if at is None:
            return Response(value=None)
        epr = self.atr.authoritative_epr(at.name) or self.atr._epr_for(at.name)
        return Response(value=type_to_wire(at, epr))

    def op_local_lookup(self, message: Message) -> Generator:
        """Peer-to-peer query: answer strictly from local knowledge."""
        payload = message.payload
        type_name = payload["type"] if isinstance(payload, dict) else payload
        result = self.request_manager.local_lookup(type_name)
        entries = len(result["types"]) + len(result["deployments"])
        # hash lookup plus per-entry WS-Resource serialization
        yield from self.compute(self.atr.lookup_demand + 0.0008 * entries)
        size = sum(len(w["xml"]) for w in result["types"] + result["deployments"])
        return Response(value=result, size=max(size, 128))

    def op_sp_lookup(self, message: Message) -> Generator:
        """Inter-group query handled by a super-peer."""
        payload = message.payload
        yield from self.compute(self.atr.lookup_demand)
        result = yield from self.request_manager.super_peer_lookup(
            payload["type"], forwarded=payload.get("forwarded", False)
        )
        return result

    def op_deploy(self, message: Message) -> Generator:
        """Target-side installation (invoked by a Deployment Manager)."""
        payload = message.payload
        activity_type = ActivityType.from_xml(payload["type_xml"])
        yield from self.compute(self.request_demand)
        result = yield from self.deployment_manager.install_locally(
            activity_type,
            requester=payload.get("requester", message.src),
            handler_kind=payload.get("handler", self.deployment_manager.handler_kind),
        )
        return result

    def op_rollout(self, message: Message) -> Generator:
        """Bulk provisioning: deploy one type on every matching site.

        Payload: {'type_xml':, 'target_sites': optional [...],
        'fanout': optional int}.
        """
        payload = message.payload
        activity_type = ActivityType.from_xml(payload["type_xml"])
        yield from self.compute(self.request_demand)
        result = yield from self.deployment_manager.rollout(
            activity_type,
            target_sites=payload.get("target_sites"),
            fanout=payload.get("fanout"),
        )
        return result

    def op_site_info(self, message: Message) -> Generator:
        d = self.site.description
        yield from self.compute(0.0005)
        return {
            "name": d.name,
            "platform": d.platform,
            "os": d.os,
            "arch": d.arch,
            "processor_speed_mhz": d.processor_speed_mhz,
            "memory_mb": d.memory_mb,
            "processors": d.processors,
            "extra": dict(d.extra),
        }

    def op_site_load(self, message: Message) -> Generator:
        """Live load snapshot for GridARM's resource brokerage."""
        yield from self.compute(0.0005)
        cpu = self.site.cpu
        return {
            "site": self.node_name,
            "load": self.site.loadavg.value,
            "run_queue": cpu.run_queue_length,
            "cores": cpu.cores,
            "platform": self.site.description.platform,
            "utilization": cpu.utilization(),
        }

    def op_report_observed(self, message: Message) -> Generator:
        """One observation sample for the desired-state reconciler.

        Payload: ``{'types': [managed type names]}``.  Returns the live
        gauges (instantaneous busy slots / capacity, not the since-t=0
        average of ``op_site_load``) plus this site's admission-shed
        tallies and the local ACTIVE deployments of each listed type.
        """
        payload = message.payload or {}
        types = payload.get("types", [])
        yield from self.compute(0.0005)
        cpu = self.site.cpu
        deployments = {
            name: sorted(
                d.key
                for d in self.adr.local_deployments_for(name)
                if d.status == DeploymentStatus.ACTIVE
            )
            for name in types
        }
        return {
            "site": self.node_name,
            "load": self.site.loadavg.value,
            "run_queue": cpu.run_queue_length,
            "cores": cpu.cores,
            "utilization": cpu.running / cpu.cores,
            "shed_by_op": dict(self.shed_by_op),
            "deployments": deployments,
        }

    def op_apply_spec(self, message: Message) -> Generator:
        """Revision-gated write of the replicated desired state.

        Payload is ``DesiredState.to_wire()``.  A revision at or below
        the one already held is rejected (guarded-accept, like
        ``op_shard_note``) so re-deliveries after a takeover are
        idempotent.  Returns ``{'accepted':, 'revision':}``.
        """
        from repro.orchestrate.spec import DeploymentSpec, DesiredState

        wire = message.payload or {}
        yield from self.compute(0.0005)
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
        yield from self.compute(0.0005)
        resource = self.adr.home.lookup(payload["key"])
        if resource is None:
            return {"ok": False, "error": f"no local deployment {payload['key']!r}"}
        resource.set_termination_time(float(payload["at"]))
        return {"ok": True, "at": float(payload["at"])}

    def op_ping(self, message: Message) -> Generator:
        yield from self.compute(0.0002)
        return {"pong": self.node_name, "at": self.sim.now}

    def op_instantiate(self, message: Message) -> Generator:
        """Run an activity instance of a locally deployed activity.

        Payload: {'key': deployment key, 'demand': cpu seconds,
        'ticket': optional lease ticket id}.
        """
        payload = message.payload
        key = payload["key"]
        demand = float(payload.get("demand", 1.0))
        yield from self.compute(self.request_demand)
        deployment = self.adr.deployments.get(key)
        if deployment is None:
            raise DeploymentNotFound(f"no local deployment {key!r} on {self.node_name}")

        # lease enforcement through the colocated GridARM service
        gridarm = self.node.services.get("gridarm-reservation")
        if gridarm is not None:
            yield from gridarm.authorize_instantiation(
                key, payload.get("ticket"), client=message.src
            )

        from repro.glare.wrapper import wrapped_executable_path

        started = self.sim.now
        wrapped = wrapped_executable_path(deployment)
        if deployment.kind == DeploymentKind.EXECUTABLE or wrapped:
            command = wrapped or deployment.path
            job_id = yield from self.network.call(
                self.node_name, self.node_name, "gram", "submit",
                payload=JobSpec(command=command, cpu_demand=demand),
            )
            snapshot = yield from self.network.call(
                self.node_name, self.node_name, "gram", "wait", payload=job_id
            )
            exit_code = snapshot["exit_code"]
        else:
            yield from self.compute(demand)
            exit_code = 0
        finished = self.sim.now

        if gridarm is not None:
            gridarm.instantiation_finished(key, payload.get("ticket"))

        # metrics for the Deployment Status Monitor / scheduler QoS
        yield from self.network.call(
            self.node_name, self.node_name, ADR_SERVICE, "update_status",
            payload={
                "key": key,
                "last_invocation_time": started,
                "last_execution_time": finished - started,
                "last_return_code": exit_code,
            },
        )
        return {"key": key, "exit_code": exit_code, "duration": finished - started}

    # -- extension operations (paper §6 future work) -------------------------------------

    def op_undeploy(self, message: Message) -> Generator:
        """Remove a local deployment (registry entry + installed files)."""
        payload = message.payload
        key = payload["key"] if isinstance(payload, dict) else payload
        remove_files = (
            payload.get("remove_files", True) if isinstance(payload, dict) else True
        )
        yield from self.compute(self.request_demand)
        result = yield from self.undeployer.undeploy(key, remove_files=remove_files)
        return result

    def op_undeploy_type(self, message: Message) -> Generator:
        """Remove every local deployment of a type (optionally the type)."""
        payload = message.payload
        yield from self.compute(self.request_demand)
        result = yield from self.undeployer.undeploy_type(
            payload["type"],
            remove_type=payload.get("remove_type", False),
            remove_files=payload.get("remove_files", True),
        )
        return result

    def op_generate_wrapper(self, message: Message) -> Generator:
        """Otho integration: wrap an executable deployment in a service."""
        yield from self.compute(self.request_demand)
        key = yield from self.wrapper_generator.wrap(message.payload)
        return {"wrapper": key}

    def op_semantic_lookup(self, message: Message) -> Generator:
        """Search types by functional description instead of by name.

        Payload: {'function':, 'inputs': [...], 'outputs': [...],
        'domain':}.  Matches run over everything this site knows
        (local + cached types).
        """
        from repro.glare.semantics import SemanticQuery

        query = SemanticQuery.from_wire(message.payload or {})
        # scan cost: proportional to the number of known types
        yield from self.compute(
            self.atr.lookup_demand + 2e-5 * len(self.atr.hierarchy)
        )
        matches = self.semantic_index.search(query)
        return [m.to_wire() for m in matches]

    # -- overlay operations (delegated) ------------------------------------------------

    def op_digest_note(self, message: Message) -> Generator:
        """A group member's claim note for this super-peer's digest."""
        payload = message.payload
        yield from self.compute(0.0005)
        if self.digest is None or not self.overlay.is_super_peer:
            return {"accepted": False}
        self.digest.learn_member(
            payload["site"],
            payload.get("claims", []),
            payload.get("epoch", -1),
            payload.get("full", False),
        )
        if self.storage.routing:
            # the member's claims are now part of this group's content:
            # hand them to their ring owners (deduplicated per view)
            self.sim.process(
                self._send_shard_notes(list(payload.get("claims", []))),
                name=f"shard-note:{self.node_name}",
            )
        return {"accepted": True}

    def op_shard_note(self, message: Message) -> Generator:
        """Another super-peer's claims for the directory slice I own.

        Payload: ``{'site': origin super-peer, 'claims': [...]}``.
        Refused (so the sender retries) until this site is a
        routing-enabled super-peer with an applied view — group views
        land at different times, and view epochs are per-group
        counters, so the sender's epoch is meaningless here.  A stale
        claim (sender demoted, claim gone) is self-pruning: the next
        routed lookup that finds the claiming group empty forgets it.
        """
        payload = message.payload
        yield from self.compute(0.0005 + 0.0001 * len(payload.get("claims", [])))
        if (self.digest is None or not self.overlay.is_super_peer
                or not self.storage.routing or self.overlay.view.epoch < 1):
            return {"accepted": False}
        for name in payload.get("claims", []):
            self.digest.learn_group(name, payload["site"])
            self.digest.clear_missing(name)
        return {"accepted": True}

    def op_shard_lookup(self, message: Message) -> Generator:
        """Directory-owner query: answer from the groups that claim it."""
        payload = message.payload
        yield from self.compute(self.atr.lookup_demand)
        result = yield from self.request_manager.shard_lookup(payload["type"])
        return result

    def op_election_notice(self, message: Message) -> Generator:
        yield from self.compute(0.001)
        return self.overlay.handle_election_notice(message.payload)

    def op_group_assign(self, message: Message) -> Generator:
        yield from self.compute(0.001)
        return self.overlay.handle_group_assign(message.payload)

    def op_peer_assign(self, message: Message) -> Generator:
        yield from self.compute(0.001)
        return self.overlay.handle_peer_assign(message.payload)

    def op_sp_missing(self, message: Message) -> Generator:
        yield from self.compute(0.001)
        result = yield from self.overlay.handle_sp_missing(message.payload)
        return result

    def op_sp_verify(self, message: Message) -> Generator:
        yield from self.compute(0.001)
        result = yield from self.overlay.handle_sp_verify(message.payload)
        return result

    def op_sp_update(self, message: Message) -> Generator:
        yield from self.compute(0.001)
        return self.overlay.handle_sp_update(message.payload)
