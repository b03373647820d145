"""The GT4 Index Service (Default and Community flavours).

One :class:`IndexService` instance runs on every site (the *Default
Index*); one site additionally hosts the VO-root *Community Index*.
Default indices keep their site's registration alive upstream with
periodic keepalives; community membership therefore decays when a site
dies — which is how the super-peer machinery later notices topology
changes.

Cost model (see package docstring): XPath queries charge CPU per
visited node, plus a heap-pressure multiplier reproducing the paper's
observed overload collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from repro.net.interceptors import TRANSIENT_ERRORS, RemoteError
from repro.net.message import Message
from repro.net.network import ServiceNotFound
from repro.net.service import Service
from repro.simkernel.primitives import Periodic, Resource
from repro.wsrf.resource import EndpointReference
from repro.wsrf.servicegroup import ServiceGroup
from repro.wsrf.xmldoc import Element, parse_xml
from repro.wsrf.xpath import XPathQuery, query_reply


#: what ``Network.call`` raises when an index cannot be reached
#: (offline, timed out, shedding) or cannot serve — "the index did not
#: answer" for the keepalive, the Index Monitor and ``known_sites``;
#: anything else there is a bug and surfaces
UPSTREAM_UNREACHABLE = TRANSIENT_ERRORS + (ServiceNotFound, RemoteError)


@dataclass
class SiteRegistration:
    """One member site registered in a community index."""

    site: str
    registered_at: float
    last_keepalive: float
    ttl: float

    def expired(self, now: float) -> bool:
        return now - self.last_keepalive > self.ttl


class IndexService(Service):
    """A WS-MDS index: XPath-queried aggregation of resource documents.

    Parameters
    ----------
    community:
        True for the VO-root community index.
    upstream:
        Site name hosting this index's parent (community) index; the
        keepalive process maintains the registration.
    per_visit_cost:
        CPU-seconds per XPath node visit — the O(n) query term.
    fixed_cost:
        Per-query fixed CPU demand (parsing, dispatch).
    workers:
        Query worker pool size (GT4's default container thread pool).
    heap_node_budget:
        Resident document nodes (concurrent queries x aggregate size)
        the container heap can hold; the overload collapse threshold.
    gc_threshold:
        Heap occupancy fraction below which GC cost is negligible.
    gc_cap:
        Occupancy ceiling for the cost model; at/above it the service
        is effectively unresponsive (thousands of times slower).
    """

    SERVICE_NAME = "mds-index"

    def __init__(
        self,
        network,
        node_name,
        community: bool = False,
        upstream: Optional[str] = None,
        per_visit_cost: float = 8e-6,
        fixed_cost: float = 0.004,
        workers: int = 12,
        heap_node_budget: float = 20000.0,
        gc_threshold: float = 0.75,
        gc_cap: float = 0.9999,
        keepalive_interval: float = 30.0,
        registration_ttl: float = 90.0,
        name: Optional[str] = None,
        upstream_service: Optional[str] = None,
    ) -> None:
        super().__init__(network, node_name, name=name)
        self.community = community
        self.upstream = upstream
        self.upstream_service = upstream_service
        self.per_visit_cost = per_visit_cost
        self.fixed_cost = fixed_cost
        self.workers = workers
        self.heap_node_budget = heap_node_budget
        self.gc_threshold = gc_threshold
        self.gc_cap = gc_cap
        self.registration_ttl = registration_ttl

        self.aggregation = ServiceGroup(self.sim, name=f"mds:{node_name}")
        self.site_registrations: Dict[str, SiteRegistration] = {}
        #: the container's query thread pool: queries beyond `workers`
        #: wait for a slot before touching the aggregate
        self._worker_pool = Resource(self.sim, capacity=workers)
        self._active_queries = 0
        self.queries_served = 0
        self.thrashed_queries = 0
        #: announces this index upstream at once, then every interval
        self.keepalive = Periodic(
            self.sim, keepalive_interval, self._register_upstream,
            f"mds-keepalive:{node_name}", tick_first=True,
        )

    # -- resource aggregation ------------------------------------------------

    def register_document(self, epr: EndpointReference, doc: Element) -> None:
        """Local-side registration of a resource document."""
        self.aggregation.add(epr, doc)

    def unregister_document(self, epr: EndpointReference) -> bool:
        return self.aggregation.remove(epr)

    @property
    def resource_count(self) -> int:
        return len(self.aggregation)

    @property
    def busy_workers(self) -> int:
        """Query worker threads currently occupied (pool gauge)."""
        return self._worker_pool.count

    @property
    def queued_queries(self) -> int:
        """Queries waiting for a worker thread."""
        return self._worker_pool.queue_length

    def op_register(self, message: Message) -> Generator:
        """Remote registration: payload {'xml': str, 'key': str, 'address': str}."""
        payload = message.payload
        doc = payload["xml"]
        if isinstance(doc, str):
            doc = parse_xml(doc)
        epr = EndpointReference(
            address=payload.get("address", f"{message.src}/{self.name}"),
            service=payload.get("service", self.name),
            key=payload["key"],
            last_update_time=self.sim.now,
        )
        yield from self.compute(self.fixed_cost)
        self.register_document(epr, doc)
        return {"registered": epr.key}

    def op_unregister(self, message: Message) -> Generator:
        payload = message.payload
        epr = EndpointReference(
            address=payload.get("address", f"{message.src}/{self.name}"),
            service=payload.get("service", self.name),
            key=payload["key"],
        )
        yield from self.compute(self.fixed_cost / 2)
        return {"removed": self.unregister_document(epr)}

    # -- queries -----------------------------------------------------------------

    def _pressure_multiplier(self) -> float:
        """GC-thrash inflation: hyperbolic cliff in heap occupancy.

        Occupancy is (concurrent queries x resident aggregate nodes) /
        heap budget.  Below ``gc_threshold`` garbage collection is
        free; approaching full occupancy the mutator share of CPU goes
        to zero like ``1/(1 - occupancy)`` — the JVM behaviour behind
        the index "stops responding" observation in the paper.
        """
        resident = self.aggregation.documents().size
        occupancy = (self._active_queries * max(resident, 1)) / self.heap_node_budget
        if occupancy <= self.gc_threshold:
            return 1.0
        occupancy = min(occupancy, self.gc_cap)
        return (1.0 - self.gc_threshold) / (1.0 - occupancy)

    def op_query(self, message: Message) -> Generator:
        """XPath query over the aggregate: payload is the expression string."""
        expression = message.payload
        query = XPathQuery.compile(expression)
        obs = self.obs
        with obs.tracer.span("mds:query", site=self.node_name) as span:
            queued_at = self.sim.now
            worker = self._worker_pool.request()
            active = 0
            try:
                # the wait for a worker is covered too: a query whose
                # deadline expires here must withdraw its request, or
                # the slot is later granted to nobody and held forever
                yield worker
                queue_wait = self.sim.now - queued_at
                span.set_attr("queue_wait", queue_wait)
                obs.metrics.histogram("mds.queue_wait", site=self.node_name).observe(
                    queue_wait
                )
                self._active_queries += 1
                active = 1
                results, visits = query.evaluate(self.aggregation.documents())
                demand = self.fixed_cost + visits * self.per_visit_cost
                multiplier = self._pressure_multiplier()
                if multiplier > 1.0:
                    self.thrashed_queries += 1
                    obs.metrics.counter("mds.thrashed_queries").inc()
                    demand *= multiplier
                span.set_attr("visits", visits)
                yield from self.compute(demand)
            finally:
                self._active_queries -= active
                self._worker_pool.release(worker)
        self.queries_served += 1
        return query_reply(results)

    # -- hierarchy: site registration ------------------------------------------------

    def op_register_site(self, message: Message) -> Generator:
        """Keepalive from a downstream default index."""
        if not self.community:
            raise RuntimeError(f"{self.node_name} is not a community index")
        site = message.payload["site"]
        yield from self.compute(0.001)
        existing = self.site_registrations.get(site)
        if existing is None:
            self.site_registrations[site] = SiteRegistration(
                site=site,
                registered_at=self.sim.now,
                last_keepalive=self.sim.now,
                ttl=self.registration_ttl,
            )
        else:
            existing.last_keepalive = self.sim.now
        return {"members": len(self.live_sites())}

    def op_list_sites(self, message: Message) -> Generator:
        """Current live community membership."""
        if not self.community:
            raise RuntimeError(f"{self.node_name} is not a community index")
        yield from self.compute(0.001)
        return self.live_sites()

    def op_probe(self, message: Message) -> Generator:
        """Index Monitor probe: community status + membership size."""
        yield from self.compute(0.0005)
        return {
            "community": self.community,
            "site": self.node_name,
            "member_count": len(self.live_sites()) if self.community else 0,
            "resource_count": self.resource_count,
        }

    def live_sites(self) -> List[str]:
        """Member sites whose registration has not expired.

        The community index's own host is always a live member — it
        does not keep itself alive over the network.
        """
        now = self.sim.now
        expired = [s for s, r in self.site_registrations.items() if r.expired(now)]
        for site in expired:
            del self.site_registrations[site]
        members = set(self.site_registrations)
        if self.community:
            members.add(self.node_name)
        return sorted(members)

    # -- upstream keepalive -------------------------------------------------------------

    def start(self) -> None:
        """Launch the upstream keepalive process (if an upstream is set)."""
        if self.upstream is not None:
            self.keepalive.start()

    def loops(self):
        return (self.aggregation.refresher, self.keepalive)

    def invariants(self) -> Iterator[Tuple[str, str]]:
        # a query in flight holds, or waits for, at most one worker
        held, queued, inflight = self.busy_workers, self.queued_queries, self.inflight
        if held + queued > inflight:
            yield "workers-held-by-queries", f"{held} held, {queued} queued, {inflight} in flight"

    def _register_upstream(self) -> Generator:
        try:
            yield from self.call(
                self.upstream,
                self.upstream_service or self.name,
                "register_site",
                payload={"site": self.node_name},
            )
        except UPSTREAM_UNREACHABLE:
            # keep trying; membership decay at the community handles
            # prolonged absence
            pass
