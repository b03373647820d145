"""The GLARE registries: Activity Type Registry + Activity Deployment Registry.

Both are WSRF services (paper §3.1): every registered type/deployment
is a WS-Resource aggregated through a service group, so the registries
answer XPath queries exactly like the WS-MDS index — *but named
lookups go through a hash table*, skipping the scan entirely.  That
asymmetry is the whole performance story of paper Figs. 10/11.

Distribution model: every site runs its own ATR/ADR pair holding the
resources registered locally, plus a *cache* of resources discovered
from remote sites (optional, paper §3.1: "a resource discovered from a
remote registry is optionally cached locally").  Cross-site resolution
lives in the RDM service (:mod:`repro.glare.rdm`), not here.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.glare.errors import (
    GlareError,
    TypeMissingForDeployment,
    TypeNotFound,
)
from repro.glare.hierarchy import TypeHierarchy
from repro.glare.model import ActivityDeployment, ActivityType, DeploymentStatus
from repro.glare.storage import StorageConfig
from repro.net.message import Message, Response, WireDict
from repro.net.service import Service
from repro.wsrf.notification import NotificationBroker
from repro.wsrf.resource import EndpointReference, ResourceHome, WSResource
from repro.wsrf.servicegroup import ServiceGroup
from repro.wsrf.xmldoc import parse_shared
from repro.wsrf.xpath import XPathQuery, query_reply

ATR_SERVICE = "activity-type-registry"
ADR_SERVICE = "activity-deployment-registry"


def type_to_wire(activity_type: ActivityType, epr: EndpointReference) -> Dict[str, object]:
    """Serialize a type + its EPR for transport (cached wire form)."""
    return WireDict(
        xml=activity_type.wire_xml(),
        epr=epr_to_wire(epr),
        name=activity_type.name,
    )


def epr_to_wire(epr: EndpointReference) -> Dict[str, object]:
    return {
        "address": epr.address,
        "service": epr.service,
        "key": epr.key,
        "lut": epr.last_update_time,
    }


def epr_from_wire(wire: Dict[str, object]) -> EndpointReference:
    return EndpointReference(
        address=str(wire["address"]),
        service=str(wire["service"]),
        key=str(wire["key"]),
        last_update_time=float(wire["lut"]),
    )


def deployment_to_wire(
    deployment: ActivityDeployment, epr: EndpointReference
) -> Dict[str, object]:
    return WireDict(
        xml=deployment.wire_xml(),
        epr=epr_to_wire(epr),
        site=deployment.site,
        type=deployment.type_name,
        name=deployment.name,
    )


def type_from_wire(wire: Dict[str, object]) -> ActivityType:
    """Decode a type wire: a fresh object per call, never an alias,
    that starts with the wire form it arrived as (no re-serialisation
    when it is cached and served on)."""
    return ActivityType.from_wire_xml(wire["xml"])


def deployment_from_wire(wire: Dict[str, object]) -> ActivityDeployment:
    """Decode a deployment wire (fresh per call, wire form set)."""
    return ActivityDeployment.from_wire_xml(wire["xml"])


def wire_site(wire: Dict[str, object]) -> str:
    """Site of a deployment wire, from its metadata (no XML parse)."""
    return str(wire["site"])


def merge_lookups(results: List[Optional[Dict]]) -> Dict[str, List[Dict]]:
    """Union ``local_lookup``-shaped results, de-duplicated by resource key."""
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


class _Registry(Service):
    """What the ATR and the ADR both are (paper §3.1).

    A WSRF service over a resource ``home`` of locally registered
    WS-Resources, a ``cache`` of resources discovered from remote
    registries — each remembering the source EPR whose
    ``LastUpdateTime`` revalidates it (Fig. 6) — and one service group
    aggregating the local resources for XPath queries.  The base owns
    every index both registries share, so publishing, unpublishing,
    caching and evicting are each stated once; a subclass extends them
    with ``super()`` for the indexes only it keeps.

    Registered and cached items are :class:`ActivityType` /
    :class:`ActivityDeployment` objects: both carry ``key`` and
    ``to_xml()``.

    Parameters
    ----------
    lookup_demand:
        CPU per named (hash-table) lookup — flat in registry size.
    register_demand:
        CPU per registration (WS-Resource creation, validation).
    storage:
        Backend selection for the resource homes; defaults to the flat
        dict backend (byte-identical to the pre-backend registry).
    """

    #: the operation returning one resource's wire by key — what the
    #: Cache Refresher refetches a changed resource through
    FETCH_OP = ""
    #: wire -> item decoder (``type_from_wire`` / ``deployment_from_wire``)
    from_wire = None

    def __init__(self, network, node_name, lookup_demand: float,
                 register_demand: float, cache_enabled: bool,
                 storage: StorageConfig) -> None:
        super().__init__(network, node_name)
        self.lookup_demand = lookup_demand
        self.register_demand = register_demand
        self.cache_enabled = cache_enabled
        self.home = ResourceHome(storage.make_backend())  # registered here
        self.cache = ResourceHome(storage.make_backend())  # discovered remotely
        self.cache_sources: Dict[str, EndpointReference] = {}
        self.aggregation = ServiceGroup(self.sim, name=f"{self.name}:{node_name}")
        self.lookups = 0
        self.cache_hits = 0
        #: optional hook called with the *type name* an authoritative
        #: registration claims; the directory plane uses it to piggyback
        #: super-peer digest updates onto registrations
        self.on_local_registration = None

    def _epr_for(self, key: str) -> EndpointReference:
        return EndpointReference(
            address=f"{self.node_name}/{self.name}",
            service=self.name,
            key=key,
            last_update_time=self.sim.now,
        )

    # -- local resources --------------------------------------------------------

    def _publish(self, item) -> WSResource:
        """Make ``item`` a local WS-Resource: in ``home`` and aggregated."""
        resource = self.home.add(WSResource(
            key=item.key, properties=item.to_xml(),
            owner_epr=self._epr_for(item.key), created_at=self.sim.now))
        self.aggregation.add(resource.epr, resource.properties,
                             provider=lambda r=resource: None if r.destroyed else r.properties)
        return resource

    def unpublish(self, resource: WSResource) -> None:
        """Withdraw a local resource from ``home`` and the service group.

        The one removal path: explicit removal hands over the resource
        it looked up, an expiry sweep the resource it already took out
        of ``home`` — so this works from the resource, not from ``home``.
        """
        self.home.remove(resource.key)
        self.aggregation.remove(resource.epr)
        resource.destroy()

    def remove_local(self, key: str) -> bool:
        """Unpublish the local resource under ``key``; False if none."""
        resource = self.home.lookup(key)
        if resource is None:
            return False
        self.unpublish(resource)
        return True

    # -- cached resources -------------------------------------------------------

    def add_cached(self, item, source_epr: EndpointReference) -> Optional[WSResource]:
        """Cache a resource discovered from a remote registry.

        A cache entry is not aggregated, so its property document is the
        shared read-only parse of the item's wire form — for an item
        decoded from a wire, the tree it was just built from.
        """
        if not self.cache_enabled:
            return None
        self.cache_sources[item.key] = source_epr
        return self.cache.add(WSResource(
            key=item.key, properties=parse_shared(item.wire_xml()),
            owner_epr=source_epr, created_at=self.sim.now))

    def cache_wire(self, wire: Dict[str, object]) -> Optional[WSResource]:
        """Decode a received wire and cache what it carries.

        The single receive-side decode: every path that learns a remote
        resource (lookup results, installations, revalidation) ends
        here.  Nothing is parsed when caching is off.
        """
        if not self.cache_enabled:
            return None
        return self.add_cached(self.from_wire(wire), epr_from_wire(wire["epr"]))

    def drop_cached(self, key: str) -> None:
        """Evict a cached resource (stale, gone at its source, shadowed)."""
        self.cache.remove(key)
        self.cache_sources.pop(key, None)

    # -- shared operations ------------------------------------------------------

    def op_query(self, message: Message) -> Generator:
        """XPath query over the aggregated resource documents."""
        query = XPathQuery.compile(message.payload)
        results, visits = query.evaluate(self.aggregation.documents())
        yield from self.compute(self.lookup_demand + visits * self.per_visit_cost)
        return query_reply(results)

    def op_get_lut(self, message: Message) -> Generator:
        """LastUpdateTime of a local resource (cache revalidation)."""
        yield from self.compute(0.0008)
        resource = self.home.lookup(message.payload)
        return None if resource is None else resource.last_update_time

    def op_get_lut_batch(self, message: Message) -> Generator:
        """Batched LastUpdateTime: one RPC revalidates many entries.

        Payload is a list of resource keys; the answer maps each key to
        its LUT (or ``None`` when the resource is gone).  The marginal
        per-key cost is a hash lookup, far below the fixed request cost
        — which is exactly why the Cache Refresher batches.
        """
        keys = list(message.payload or [])
        yield from self.compute(0.0008 + 0.0002 * max(0, len(keys) - 1))
        luts: Dict[str, object] = {}
        for key in keys:
            resource = self.home.lookup(key)
            luts[key] = None if resource is None else resource.last_update_time
        # no explicit size: the default estimate_size(luts) accounts for
        # the actual key lengths, where the old 40-bytes-per-entry
        # heuristic undercharged batches of long keys
        return Response(value=luts)


class ActivityTypeRegistry(_Registry):
    """Per-site registry of activity types: the shared core plus the
    type hierarchy and WS-Notification of registry changes.

    ``per_visit_cost`` is the CPU per node visited by an XPath query
    (same engine as MDS); the colocated ADR charges the same figure.
    """

    SERVICE_NAME = ATR_SERVICE
    FETCH_OP = "lookup_type"
    from_wire = staticmethod(type_from_wire)

    def __init__(
        self,
        network,
        node_name,
        lookup_demand: float = 0.004,
        register_demand: float = 0.62,
        per_visit_cost: float = 8e-6,
        cache_enabled: bool = True,
        storage: StorageConfig = StorageConfig.PAPER,
    ) -> None:
        super().__init__(network, node_name, lookup_demand, register_demand,
                         cache_enabled, storage)
        self.per_visit_cost = per_visit_cost
        self.hierarchy = TypeHierarchy()
        #: WS-Notification: sinks subscribe to registry-change events
        #: (the listeners of the paper's Fig. 13 experiment)
        self.notifications = NotificationBroker(network, node_name)

    # -- local bookkeeping ---------------------------------------------------

    def add_local_type(self, activity_type: ActivityType) -> WSResource:
        """Insert a type authoritatively on this site (no RPC)."""
        activity_type.registered_at = self.sim.now
        self.hierarchy.add(activity_type)
        resource = self._publish(activity_type)
        self.notifications.publish(
            "type-updates",
            {"event": "registered", "type": activity_type.name,
             "site": self.node_name},
        )
        if self.on_local_registration is not None:
            self.on_local_registration(activity_type.name)
        return resource

    def unpublish(self, resource: WSResource) -> None:
        super().unpublish(resource)
        name = resource.key
        if self.cache.lookup(name) is None:
            self.hierarchy.remove(name)
        self.notifications.publish(
            "type-updates",
            {"event": "removed", "type": name, "site": self.node_name},
        )

    def add_cached(self, activity_type: ActivityType,
                   source_epr: EndpointReference) -> Optional[WSResource]:
        if self.cache_enabled:
            self.hierarchy.add(activity_type)  # may refuse a cycle: index first
        return super().add_cached(activity_type, source_epr)

    def drop_cached(self, name: str) -> None:
        super().drop_cached(name)
        if self.home.lookup(name) is None:
            self.hierarchy.remove(name)

    def find_type(self, name: str) -> Optional[ActivityType]:
        """Hash lookup across local home then cache (no CPU charge)."""
        if self.home.lookup(name) is not None or self.cache.lookup(name) is not None:
            return self.hierarchy.get(name)
        return None

    def local_type_names(self) -> List[str]:
        return self.home.keys()

    def authoritative_epr(self, name: str) -> Optional[EndpointReference]:
        resource = self.home.lookup(name)
        if resource is not None:
            return resource.epr
        return self.cache_sources.get(name)

    # -- operations -------------------------------------------------------------

    def op_register_type(self, message: Message) -> Generator:
        """Register a type from its XML description (paper Example 2)."""
        xml = message.payload["xml"] if isinstance(message.payload, dict) else message.payload
        activity_type = ActivityType.from_xml(xml)
        if not activity_type.provider:
            activity_type.provider = message.src
        with self.obs.tracer.span(
            "registry:register_type", type=activity_type.name, site=self.node_name
        ):
            # validation + WS-Resource creation cost, scaled by document size
            yield from self.compute(self.register_demand + len(xml) * 2e-7)
            resource = self.add_local_type(activity_type)
        self.obs.metrics.counter("registry.types_registered", site=self.node_name).inc()
        return {"registered": activity_type.name, "epr": epr_to_wire(resource.epr)}

    def op_lookup_type(self, message: Message) -> Generator:
        """Named lookup — the hash-table fast path."""
        name = message.payload
        yield from self.compute(self.lookup_demand)
        self.lookups += 1
        self.obs.metrics.counter("registry.lookups", registry="atr").inc()
        local = self.home.lookup(name)
        if local is not None:
            # wire_size() is len() of the same serialized document the
            # resource properties hold, so the charged size is unchanged
            at = self.hierarchy.require(name)
            return Response(
                value=type_to_wire(at, local.epr),
                size=at.wire_size(),
            )
        cached = self.cache.lookup(name)
        if cached is not None:
            self.cache_hits += 1
            self.obs.metrics.counter("registry.cache_hits", registry="atr").inc()
            at = self.hierarchy.require(name)
            return Response(
                value=type_to_wire(at, self.cache_sources[name]),
                size=at.wire_size(),
            )
        return Response(value=None)

    def op_resolve_concrete(self, message: Message) -> Generator:
        """Concrete types providing the requested (possibly abstract) type."""
        name = message.payload
        yield from self.compute(self.lookup_demand)
        if self.find_type(name) is None:
            return Response(value=None)
        concrete = self.hierarchy.concrete_types_for(name)
        wires = []
        for at in concrete:
            epr = self.authoritative_epr(at.name) or self._epr_for(at.name)
            wires.append(type_to_wire(at, epr))
        return Response(value=wires, size=sum(len(w["xml"]) for w in wires) or 128)

    def op_remove_type(self, message: Message) -> Generator:
        name = message.payload
        yield from self.compute(self.lookup_demand)
        return {"removed": self.remove_local(name)}

    def op_list_types(self, message: Message) -> Generator:
        yield from self.compute(self.lookup_demand)
        return {"local": self.local_type_names(), "cached": self.cache.keys()}

    def op_subscribe(self, message: Message) -> Generator:
        """Register a notification sink for registry-change events.

        Payload: {'sink_site':, 'sink_service':, 'topic': optional}.
        """
        payload = message.payload
        yield from self.compute(0.002)
        subscription = self.notifications.subscribe(
            payload.get("topic", "type-updates"),
            payload["sink_site"],
            payload["sink_service"],
        )
        return {"subscription_id": subscription.subscription_id}

    def op_unsubscribe(self, message: Message) -> Generator:
        """Drop a subscription by id (idempotent)."""
        subscription_id = message.payload
        yield from self.compute(0.001)
        for subs in list(self.notifications._topics.values()):
            for subscription in list(subs):
                if subscription.subscription_id == subscription_id:
                    self.notifications.unsubscribe(subscription)
                    return {"unsubscribed": True}
        return {"unsubscribed": False}

    def op_set_termination(self, message: Message) -> Generator:
        """Schedule a local type's expiry (lifecycle control, §3.3)."""
        payload = message.payload
        yield from self.compute(0.001)
        resource = self.home.lookup(payload["name"])
        if resource is None:
            raise TypeNotFound(f"no local type {payload['name']!r} on {self.node_name}")
        resource.set_termination_time(payload["at"])
        return {"name": payload["name"], "terminates_at": payload["at"]}


class ActivityDeploymentRegistry(_Registry):
    """Per-site registry of activity deployments: the shared core plus
    the deployment tables, the by-type index and status updates.

    "An activity type must be present in the type registry before
    registration of its deployments.  ...  In case of failure in
    discovering matching activity type, the deployment registry service
    requests the type registry service for the dynamic registration of
    a new activity type." (paper §3.1)
    """

    SERVICE_NAME = ADR_SERVICE
    FETCH_OP = "get_deployment"
    from_wire = staticmethod(deployment_from_wire)

    def __init__(
        self,
        network,
        node_name,
        atr: ActivityTypeRegistry,
        lookup_demand: float = 0.004,
        register_demand: float = 0.17,
        cache_enabled: bool = True,
        storage: StorageConfig = StorageConfig.PAPER,
    ) -> None:
        super().__init__(network, node_name, lookup_demand, register_demand,
                         cache_enabled, storage)
        self.atr = atr
        # denormalized indexes (deployments/by_type/...) stay plain
        # dicts: they are per-site working sets, not the sharded
        # namespace — only the resource homes go through the backend
        self.deployments: Dict[str, ActivityDeployment] = {}
        self.cached_deployments: Dict[str, ActivityDeployment] = {}
        self.by_type: Dict[str, List[str]] = {}

    @property
    def per_visit_cost(self) -> float:
        """XPath cost per visited node: the colocated ATR's figure."""
        return self.atr.per_visit_cost

    # -- local bookkeeping ---------------------------------------------------

    def add_local_deployment(self, deployment: ActivityDeployment) -> WSResource:
        """Insert a deployment authoritatively (type must already exist)."""
        if self.atr.find_type(deployment.type_name) is None:
            raise TypeMissingForDeployment(
                f"type {deployment.type_name!r} not registered on {self.node_name}"
            )
        at = self.atr.hierarchy.require(deployment.type_name)
        if at.max_deployments is not None:
            existing = [
                k for k in self.by_type.get(deployment.type_name, [])
                if k in self.deployments and k != deployment.key
            ]
            if len(existing) >= at.max_deployments:
                raise GlareError(
                    f"type {deployment.type_name!r} allows at most "
                    f"{at.max_deployments} deployments"
                )
        deployment.registered_at = self.sim.now
        deployment.last_update_time = self.sim.now
        self.deployments[deployment.key] = deployment
        resource = self._publish(deployment)
        self._index_by_type(deployment)
        if self.on_local_registration is not None:
            self.on_local_registration(deployment.type_name)
        return resource

    def unpublish(self, resource: WSResource) -> None:
        super().unpublish(resource)
        key = resource.key
        deployment = self.deployments.pop(key, None)
        # a deploy initiator caches what the target registered, and the
        # target may be this site: that same-key cached copy must not
        # outlive the deployment it shadows
        self.drop_cached(key)
        if deployment is not None:
            self._unindex_by_type(deployment)

    def add_cached(self, deployment: ActivityDeployment,
                   source_epr: EndpointReference) -> Optional[WSResource]:
        resource = super().add_cached(deployment, source_epr)
        if resource is not None:
            self.cached_deployments[deployment.key] = deployment
            self._index_by_type(deployment)
        return resource

    def drop_cached(self, key: str) -> None:
        super().drop_cached(key)
        deployment = self.cached_deployments.pop(key, None)
        if deployment is not None and key not in self.deployments:
            self._unindex_by_type(deployment)

    def _index_by_type(self, deployment: ActivityDeployment) -> None:
        keys = self.by_type.setdefault(deployment.type_name, [])
        if deployment.key not in keys:
            keys.append(deployment.key)

    def _unindex_by_type(self, deployment: ActivityDeployment) -> None:
        keys = self.by_type.get(deployment.type_name, [])
        if deployment.key in keys:
            keys.remove(deployment.key)

    def local_deployments_for(self, type_name: str) -> List[ActivityDeployment]:
        out = []
        for key in self.by_type.get(type_name, []):
            if key in self.deployments:
                out.append(self.deployments[key])
        return out

    def all_deployments_for(self, type_name: str) -> List[ActivityDeployment]:
        out = self.local_deployments_for(type_name)
        for key in self.by_type.get(type_name, []):
            if key in self.cached_deployments:
                out.append(self.cached_deployments[key])
        return out

    def touch(self, key: str) -> None:
        """Refresh a deployment's LUT (Deployment Status Monitor)."""
        resource = self.home.lookup(key)
        if resource is not None:
            resource.touch(self.sim.now)
        deployment = self.deployments.get(key)
        if deployment is not None:
            deployment.last_update_time = self.sim.now

    # -- operations -------------------------------------------------------------

    def op_register_deployment(self, message: Message) -> Generator:
        """Register a deployment; dynamic type registration on demand.

        Payload: {'xml': deployment xml, 'type_xml': optional type xml}.
        """
        payload = message.payload
        xml = payload["xml"] if isinstance(payload, dict) else payload
        deployment = ActivityDeployment.from_xml(xml)
        with self.obs.tracer.span(
            "registry:register_deployment", key=deployment.key, site=self.node_name
        ):
            yield from self.compute(self.register_demand + len(xml) * 2e-7)
            if self.atr.find_type(deployment.type_name) is None:
                type_xml = payload.get("type_xml") if isinstance(payload, dict) else None
                if not type_xml:
                    raise TypeMissingForDeployment(
                        f"type {deployment.type_name!r} unknown on {self.node_name} "
                        "and no type description supplied"
                    )
                # dynamic registration through the local type registry
                yield from self.call(
                    self.node_name, ATR_SERVICE, "register_type",
                    payload={"xml": type_xml},
                )
            resource = self.add_local_deployment(deployment)
        self.obs.metrics.counter(
            "registry.deployments_registered", site=self.node_name
        ).inc()
        return {"registered": deployment.key, "epr": epr_to_wire(resource.epr)}

    def op_lookup_deployments(self, message: Message) -> Generator:
        """All known deployments of a *concrete* type (hash lookup)."""
        type_name = message.payload
        yield from self.compute(self.lookup_demand)
        self.lookups += 1
        self.obs.metrics.counter("registry.lookups", registry="adr").inc()
        wires = []
        for deployment in self.all_deployments_for(type_name):
            source = self.cache_sources.get(deployment.key)
            if source is not None:
                self.cache_hits += 1
                self.obs.metrics.counter("registry.cache_hits", registry="adr").inc()
            epr = source or self._epr_for(deployment.key)
            wires.append(deployment_to_wire(deployment, epr))
        return Response(value=wires, size=sum(len(w["xml"]) for w in wires) or 128)

    def op_get_deployment(self, message: Message) -> Generator:
        key = message.payload
        yield from self.compute(self.lookup_demand)
        deployment = self.deployments.get(key) or self.cached_deployments.get(key)
        if deployment is None:
            return Response(value=None)
        epr = self.cache_sources.get(key) or self._epr_for(key)
        return Response(value=deployment_to_wire(deployment, epr))

    def op_update_status(self, message: Message) -> Generator:
        """Status/metrics update from the Deployment Status Monitor."""
        payload = message.payload
        key = payload["key"]
        yield from self.compute(0.001)
        deployment = self.deployments.get(key)
        if deployment is None:
            raise GlareError(f"no local deployment {key!r} on {self.node_name}")
        if "status" in payload:
            deployment.status = DeploymentStatus(payload["status"])
        for metric in ("last_execution_time", "last_invocation_time", "last_return_code"):
            if metric in payload:
                setattr(deployment, metric, payload[metric])
        # status/metrics appear in the serialized document: drop the
        # cached wire form (the only post-registration mutation site)
        deployment.invalidate_wire_cache()
        self.touch(key)
        resource = self.home.lookup(key)
        assert resource is not None
        resource.properties = deployment.to_xml()
        # re-pull this one entry so XPath queries see the updated
        # resource document immediately
        self.aggregation.refresh(resource.epr)
        return {"key": key, "lut": deployment.last_update_time}

    def op_remove_deployment(self, message: Message) -> Generator:
        key = message.payload
        yield from self.compute(self.lookup_demand)
        return {"removed": self.remove_local(key)}
