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

This module holds what §3.2 names: the Request Manager's walk, the
client-facing operations, plumbing, and its monitors.  Every
other plane keeps its state, hooks and ``op_*`` in its own module and
is attached (:meth:`GlareRDMService.attach`): the overlay, the paper's
§6 extensions (un-deployment, wrapper generation, semantic search), the
scaled directory (:class:`DirectoryPlane`, iff switched on) and — by
``build_vo`` — the orchestration site agent.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from repro.glare.errors import CLIENT_ERRORS, DeploymentNotFound, GlareError, TypeNotFound
from repro.glare.hierarchy import TypeHierarchy
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
    merge_lookups,
    type_from_wire,
    type_to_wire,
    wire_site,
)
from repro.glare.resolution import DirectoryPlane, ResolutionConfig
from repro.glare.semantics import SemanticLookup
from repro.glare.storage import StorageConfig
from repro.glare.superpeer import OverlayManager
from repro.glare.undeploy import Undeployer
from repro.glare.wrapper import WrapperGenerator, wrapped_executable_path
from repro.gram.jobs import JobSpec
from repro.gridftp.service import GridFtpService
from repro.mds.index import UPSTREAM_UNREACHABLE, IndexService
from repro.net.interceptors import RetryPolicy
from repro.net.message import Message, Response
from repro.net.service import Service
from repro.simkernel.primitives import SingleFlight
from repro.site.gridsite import GridSite

RDM_SERVICE = "glare-rdm"


def _flight_key(type_name: str, auto_deploy: bool, exclude_sites: tuple) -> tuple:
    """The scaled plane's singleflight key of one resolution."""
    return type_name, bool(auto_deploy), tuple(sorted(exclude_sites))


class RequestManager:
    """Discovery logic: local → peers → super-peer → other super-peers."""

    #: tier name (as returned by :meth:`_resolve`) -> counter attribute
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
        #: tier -> (``glare.resolutions`` counter, ``glare.get_deployments``
        #: histogram), resolved at the first resolution of that tier
        self._tier_meters: Dict[str, tuple] = {}

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
        concrete = self.rdm.atr.hierarchy.concrete_types_for(type_name)
        return self._lookup(type_name, concrete, self._deployment_wires(concrete))

    def _deployment_wires(self, concrete: List[ActivityType]) -> List[Dict]:
        """Wires of every known deployment of the ``concrete`` types."""
        adr = self.rdm.adr
        wires: List[Dict] = []
        for at in concrete:
            for deployment in adr.all_deployments_for(at.name):
                key = deployment.key
                epr = adr.cache_sources.get(key) or adr._epr_for(key)
                wires.append(deployment_to_wire(deployment, epr))
        return wires

    def _lookup(self, type_name: str, concrete: List[ActivityType],
                deployments: List[Dict]) -> Dict[str, List[Dict]]:
        """:meth:`local_lookup` from ``concrete`` and its deployments."""
        atr = self.rdm.atr
        type_wires: List[Dict] = []
        # A site can contribute even when it never registered the
        # requested name itself: a locally known concrete type may list
        # the requested (remote) type among its base types, and the
        # hierarchy tracks those dangling edges.  This is how a type
        # "registered dynamically with one site can be discovered
        # automatically by other sites" when the abstract ancestor and
        # the concrete descendant live on different sites.
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
        return {"types": type_wires, "deployments": deployments}

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

    def cache_results(self, result: Dict[str, List[Dict]]) -> None:
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
            self.sim.process(self.rdm.ask(site, method, payload, timeout=20.0),
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

        The walk's first tier is plain calls, and a hit ends there having
        built only its deployment wires: the walk's generators, and on
        the scaled plane its flight, exist only for a miss.  Every walk
        is labelled by the tier it resolved at.
        """
        self.requests += 1
        obs = self.rdm.obs
        if not obs.enabled:
            wires, local = self._local_tier(type_name, auto_deploy, exclude_sites)
            if wires is None:
                wires, _ = yield from self._walk(type_name, auto_deploy, exclude_sites, local)
            return wires
        started = self.sim.now
        with obs.tracer.span(
            "glare:get_deployments", type=type_name, site=self.rdm.node_name
        ) as span:
            wires, local = self._local_tier(type_name, auto_deploy, exclude_sites, obs.tracer)
            tier = "local"
            if wires is None:
                wires, tier = yield from self._walk(type_name, auto_deploy, exclude_sites, local)
            attrs = span.attrs
            attrs["tier"] = tier
            attrs["deployments"] = len(wires)
            try:
                meters = self._tier_meters[tier]
            except KeyError:
                meters = self._tier_meters[tier] = (
                    obs.metrics.counter("glare.resolutions", tier=tier),
                    obs.metrics.histogram("glare.get_deployments", tier=tier))
            meters[0].inc()
            meters[1].observe(self.sim.now - started)
        return wires

    def _local_tier(self, type_name: str, auto_deploy: bool, exclude_sites: tuple,
                    tracer: Any = None) -> Tuple[Optional[List[Dict]], Optional[Dict]]:
        """:meth:`_local_answer`, spanned as ``tier:local`` by ``tracer``,
        unless the request joins the same walk in flight: ``(None, None)``."""
        if self.rdm.resolution.scaled and _flight_key(
                type_name, auto_deploy, exclude_sites) in self._flights.in_flight:
            return None, None
        if tracer is None:
            return self._local_answer(type_name, exclude_sites)
        with tracer.span("tier:local", type=type_name):
            return self._local_answer(type_name, exclude_sites)

    def _local_answer(self, type_name: str, exclude_sites: tuple
                      ) -> Tuple[Optional[List[Dict]], Optional[Dict]]:
        """``(wires, None)`` on a hit, else ``(None, local_lookup)``.

        A hit is local knowledge (authoritative + cached) short-cutting
        the walk: the cache is on and a deployment outside
        ``exclude_sites`` is known here.  With caching disabled, every
        request gathers the full deployment list from the distributed
        registries: the contrast paper Fig. 12 measures.
        """
        concrete = self.rdm.atr.hierarchy.concrete_types_for(type_name)
        deployments = self._deployment_wires(concrete)
        if self.rdm.adr.cache_enabled:
            wires = deployments
            if exclude_sites:
                wires = [w for w in wires if wire_site(w) not in exclude_sites]
            if wires:
                self.resolved_locally += 1
                return wires, None
        return None, self._lookup(type_name, concrete, deployments)

    def _walk(self, type_name: str, auto_deploy: bool, exclude_sites: tuple,
              local: Optional[Dict]) -> Generator:
        """Singleflight gate in front of :meth:`_resolve`: ``(wires, tier)``.

        On the scaled plane, concurrent identical resolutions on
        this site join the walk already in flight and share its result,
        bumping the tier counter the leader's walk returned, so
        per-request tier accounting still adds up.  A failed leading
        walk is *not* shared: its error may be specific to the leader's
        timing, so each follower falls back to its own walk.
        """
        if not self.rdm.resolution.scaled:
            result = yield from self._resolve(type_name, auto_deploy, exclude_sites, local)
            return result
        led, ok, value = yield from self._flights.run(
            _flight_key(type_name, auto_deploy, exclude_sites),
            lambda: self._resolve(type_name, auto_deploy, exclude_sites, local))
        if led:
            return value
        self.singleflight_joined += 1
        self.rdm.obs.metrics.counter("glare.singleflight_joined", site=self.rdm.node_name).inc()
        if not ok:
            result = yield from self._resolve(type_name, auto_deploy, exclude_sites)
            return result
        wires, tier = value
        attr = self._TIER_ATTRS[tier]
        setattr(self, attr, getattr(self, attr) + 1)
        return list(wires), tier

    def _resolve(self, type_name: str, auto_deploy: bool = True,
                 exclude_sites: tuple = (), local: Optional[Dict] = None) -> Generator:
        """The walk from the group tier on: ``(wires, tier)``, ``tier``
        naming the counter it bumped.  ``local`` is the local tier's
        miss; a failed follower passes none and takes that tier itself."""
        tracer = self.rdm.obs.tracer
        excluded = set(exclude_sites)
        if local is None:
            with tracer.span("tier:local", type=type_name):
                wires, local = self._local_answer(type_name, exclude_sites)
            if wires is not None:
                return wires, "local"

        def _usable(wires):
            if not excluded:
                return wires
            return [w for w in wires if wire_site(w) not in excluded]

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
            merged = merge_lookups(gathered)
            self.cache_results(merged)
            # the fan-out gathered every group member's entries, so the
            # merged set is complete for this group with or without cache
            if _usable(merged["deployments"]):
                self.resolved_in_group += 1
                return _usable(merged["deployments"]), "group"

        # super-peer escalation
        sp_result: Optional[Dict] = None
        if self.rdm.overlay.is_super_peer:
            with tracer.span("tier:super-peer", role="super-peer"):
                sp_result = yield from self.super_peer_lookup(
                    type_name, forwarded=False
                )
        elif view.super_peer and view.super_peer != me:
            with tracer.span("tier:super-peer", via=view.super_peer):
                sp_result = yield from self.rdm.ask(
                    view.super_peer, "sp_lookup",
                    {"type": type_name, "forwarded": False}, timeout=30.0,
                )
        if sp_result:
            gathered.append(sp_result)
            self.cache_results(sp_result)
        merged = merge_lookups(gathered)
        if _usable(merged["deployments"]):
            if sp_result and _usable(sp_result["deployments"]):
                self.resolved_via_superpeer += 1
                return _usable(merged["deployments"]), "super-peer"
            self.resolved_in_group += 1
            return _usable(merged["deployments"]), "group"

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
                    return wires, "on-demand"
        # from the walk: cache off, the registry keeps no remote answer
        if not merged["types"] and self.rdm.atr.find_type(type_name) is None:
            raise TypeNotFound(f"activity type {type_name!r} unknown in the VO")
        raise DeploymentNotFound(
            f"no deployment for {type_name!r} and on-demand installation "
            "was not possible"
        )

    def super_peer_lookup(self, type_name: str, forwarded: bool) -> Generator:
        """Super-peer body: own registries, then members, then the
        other super-peers (unless another super-peer forwarded this).

        With the directory plane on, the member fan-out is narrowed to
        the members that claim the type and the cross-group step goes
        through :meth:`DirectoryPlane.escalate`, which wraps
        :meth:`broadcast` as its loss-free fallback.
        """
        plane = self.rdm.directory if self.rdm.overlay.is_super_peer else None
        result = self.local_lookup(type_name)
        if result["deployments"]:
            return result
        me = self.rdm.node_name
        members = [s for s in self.rdm.overlay.view.member_sites() if s != me]
        if plane is not None:
            members = plane.narrow(type_name, members)
        if members:
            results = yield from self.fanout(members, "local_lookup", {"type": type_name})
            merged = merge_lookups([result] + results)
            self.cache_results(merged)  # the super-peer cache level
            if merged["deployments"]:
                return merged
            result = merged
        if forwarded:
            return result
        if plane is not None:
            result = yield from plane.escalate(type_name, result)
            return result
        others = self.rdm.overlay.other_super_peers()
        if others:
            result, _ = yield from self.broadcast(type_name, result, others)
        return result

    def broadcast(self, type_name: str, result: Dict,
                  others: List[str]) -> Generator:
        """The paper's cross-group step: ask every one of ``others``.

        Returns ``(merged, labeled)``: ``result`` merged with every
        answer (and cached), plus the answers by super-peer.
        """
        labeled = yield from self.fanout_labeled(
            others, "sp_lookup", {"type": type_name, "forwarded": True}
        )
        merged = merge_lookups([result] + [value for _, value in labeled])
        self.cache_results(merged)
        return merged, labeled

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
        merged = merge_lookups(results)
        self.cache_results(merged)
        at = self.rdm.atr.find_type(type_name)
        if at is not None:
            return at
        # escalate through the super group: either directly (when this
        # site is a super-peer) or via this group's super-peer, which
        # forwards to the others
        if self.rdm.overlay.is_super_peer:
            sp_merged = yield from self.super_peer_lookup(type_name, forwarded=False)
            self.cache_results(sp_merged)
            merged = merge_lookups([merged, sp_merged])
        elif view.super_peer and view.super_peer != me:
            sp_result = yield from self.rdm.ask(
                view.super_peer, "sp_lookup",
                {"type": type_name, "forwarded": False}, timeout=30.0,
            )
            if sp_result:
                self.cache_results(sp_result)
                merged = merge_lookups([merged, sp_result])
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
    community_site:
        Where the VO-root community index lives (site discovery).
    """

    SERVICE_NAME = RDM_SERVICE
    #: CPU per client-facing request (parse, validate, dispatch)
    REQUEST_DEMAND = 0.002

    def __init__(
        self,
        network,
        site: GridSite,
        atr: ActivityTypeRegistry,
        adr: ActivityDeploymentRegistry,
        gridftp: GridFtpService,
        handler: str = "expect",
        community_site: Optional[str] = None,
        group_size: int = 3,
        resolution: ResolutionConfig = ResolutionConfig.PAPER,
        provisioning: ProvisioningConfig = ProvisioningConfig.PAPER,
        retry_policy: Optional[RetryPolicy] = None,
        storage: StorageConfig = StorageConfig.PAPER,
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
        self.resolution = resolution
        self.storage = storage
        self._monitors: List = []

        self.request_manager = RequestManager(self)
        self.deployment_manager = DeploymentManager(
            self, handler=handler, config=provisioning
        )
        self.overlay = OverlayManager(self, group_size=group_size)
        for plane in (self.overlay, Undeployer(self), WrapperGenerator(self),
                      SemanticLookup(self)):
            self.attach(plane)
        #: the scaled cross-group directory (super-peer digests, shard
        #: routing); ``None`` on the paper's path.  Shard routing reuses
        #: the digest as its directory slice, so either switch turns
        #: the plane on.
        self.directory: Optional[DirectoryPlane] = None
        if resolution.scaled or storage.routing:
            self.directory = DirectoryPlane(self)
            self.attach(self.directory)

    def attach(self, plane: Any) -> None:
        """Serve ``plane``'s ``op_*`` handlers as this service's own.

        :meth:`Service.dispatch` finds handlers by attribute, so
        attaching is binding them here — and a plane that was never
        constructed answers ``UnknownOperation``.  A plane's
        ``CONTROL_OPS`` join this service's shed-exempt set.
        """
        for name in vars(type(plane)):
            if name.startswith("op_"):
                setattr(self, name, getattr(plane, name))
        self.CONTROL_OPS = self.CONTROL_OPS | getattr(
            plane, "CONTROL_OPS", frozenset())

    # -- plumbing -----------------------------------------------------------------

    def rpc(self, dst: str, method: str, payload: Any = None,
            timeout: Optional[float] = None,
            retry: Optional[RetryPolicy] = None) -> Generator:
        """RPC to another site's RDM service.

        Runs under ``retry`` (or this RDM's default
        :attr:`retry_policy`); ``timeout`` is the per-attempt deadline
        and overrides the policy's own (probe deadlines stay exact).
        With neither set, the call is a plain single attempt.
        """
        return self.network.call(
            self.node_name, dst, RDM_SERVICE, method, payload=payload,
            retry=retry or self.retry_policy, timeout=timeout,
        )

    def ask(self, dst: str, method: str, payload: Any = None,
            timeout: Optional[float] = None) -> Generator:
        """A best-effort :meth:`rpc` to a peer: its answer, or ``None``
        when the peer gave none — offline, silent, shedding, faulted or
        a GLARE miss (any of :data:`CLIENT_ERRORS`)."""
        try:
            value = yield from self.rpc(dst, method, payload, timeout=timeout)
        except CLIENT_ERRORS:
            return None
        return value

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
                    IndexService.SERVICE_NAME, "list_sites",
                    # 10 s unless the default policy sets its own per-try timeout
                    retry=self.retry_policy,
                    timeout=getattr(self.retry_policy, "per_try_timeout", None) or 10.0,
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

    # -- background components --------------------------------------------------

    def start(self) -> None:
        """Launch the three monitors (idempotent); the overlay arms its
        own failure detector."""
        if not self._monitors:
            from repro.glare.monitors import (
                CacheRefresher,
                DeploymentStatusMonitor,
                IndexMonitor,
            )

            self._monitors = [
                IndexMonitor(self),
                CacheRefresher(self),
                DeploymentStatusMonitor(self),
            ]
            if self.resolution.scaled:
                for monitor in self._monitors:
                    # deterministic per-(site, monitor) phase offset so
                    # hundreds of loops don't tick in lockstep
                    monitor.phase = self.sim.rng.uniform(
                        f"monitor-jitter:{self.node_name}:{monitor.NAME}",
                        0.0, monitor.interval,
                    )
        for monitor in self._monitors:
            monitor.start()

    def loops(self):
        return (*self._monitors, self.overlay.detector)

    def invariants(self) -> Iterator[Tuple[str, str]]:
        # what the Deployment Status Monitor would flag FAILED
        for key, deployment in self.adr.deployments.items():
            if (deployment.kind == DeploymentKind.EXECUTABLE
                    and deployment.status == DeploymentStatus.ACTIVE
                    and not self.site.fs.is_executable(deployment.path)):
                yield "active-on-disk", (f"ACTIVE deployment {key}: no executable "
                                         f"at {deployment.path}")
        # a request resolves at one tier or fails: no tier counts it twice
        manager = self.request_manager
        resolved = sum(getattr(manager, attr) for attr in manager._TIER_ATTRS.values())
        if resolved > manager.requests:
            yield "resolutions-counted", f"{resolved} resolved of {manager.requests} requests"

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
        yield from self.compute(self.REQUEST_DEMAND)
        wires = yield from self.request_manager.get_deployments(
            type_name, auto_deploy=auto_deploy, exclude_sites=exclude
        )
        size = 0
        for wire in wires:  # a loop: a generator would resume once per wire
            size += len(wire["xml"])
        return Response(value=wires, size=size or 128)

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
        yield from self.compute(self.REQUEST_DEMAND)
        result = yield from self.network.call(
            self.node_name, self.node_name, ATR_SERVICE, "register_type",
            payload=message.payload,
        )
        return result

    def op_register_deployment(self, message: Message) -> Generator:
        yield from self.compute(self.REQUEST_DEMAND)
        result = yield from self.network.call(
            self.node_name, self.node_name, ADR_SERVICE, "register_deployment",
            payload=message.payload,
        )
        return result

    def op_lookup_type(self, message: Message) -> Generator:
        """Find a type description anywhere in the VO."""
        yield from self.compute(self.REQUEST_DEMAND)
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
        activity_type = ActivityType.from_wire_xml(payload["type_xml"])
        yield from self.compute(self.REQUEST_DEMAND)
        result = yield from self.deployment_manager.install_locally(
            activity_type,
            requester=payload.get("requester", message.src),
            handler_kind=payload.get("handler", self.deployment_manager.handler_kind),
        )
        return result

    def op_rollout(self, message: Message) -> Generator:
        """Bulk provisioning: deploy one type on every matching site.

        Payload: {'type_xml':, 'target_sites': optional [...],
        'fanout': optional int >= 1}.
        """
        payload = message.payload
        fanout = payload.get("fanout")
        if fanout is not None and (type(fanout) is not int or fanout < 1):
            # bounded_gather reads a limit <= 0 as "unbounded"
            raise GlareError(f"rollout fanout must be an int >= 1, got {fanout!r}")
        activity_type = ActivityType.from_xml(payload["type_xml"])
        yield from self.compute(self.REQUEST_DEMAND)
        result = yield from self.deployment_manager.rollout(
            activity_type, target_sites=payload.get("target_sites"), fanout=fanout,
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
        yield from self.compute(self.REQUEST_DEMAND)
        deployment = self.adr.deployments.get(key)
        if deployment is None:
            raise DeploymentNotFound(f"no local deployment {key!r} on {self.node_name}")

        # lease enforcement through the colocated GridARM service
        gridarm = self.node.services.get("gridarm-reservation")
        if gridarm is not None:
            yield from gridarm.authorize_instantiation(
                key, payload.get("ticket"), client=message.src
            )

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
