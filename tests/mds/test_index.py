"""Unit tests for the WS-MDS index baseline."""

import pytest

from repro.invariants import Violation, audit
from repro.mds import IndexService
from repro.net import Network, Topology
from repro.net.interceptors import RetryPolicy, RpcTimeout
from repro.simkernel import Simulator
from repro.vo import build_vo
from repro.wsrf.xmldoc import Element


def type_doc(name):
    doc = Element("ActivityType", attrib={"name": name, "kind": "concrete"})
    doc.make_child("Domain", text="imaging")
    doc.make_child("Function", text="render")
    return doc


def make_world(n_sites=3, **index_kwargs):
    sim = Simulator(seed=11)
    names = [f"s{i}" for i in range(n_sites)]
    topo = Topology.full_mesh(names, latency=0.003, bandwidth=1e7)
    net = Network(sim, topo)
    for n in names:
        net.add_node(n, cores=2)
    index = IndexService(net, "s0", **index_kwargs)
    return sim, net, index


def run(sim, gen):
    proc = sim.process(gen)
    sim.run()
    assert proc.ok, proc.value
    return proc.value


class TestRegistrationAndQuery:
    def test_register_then_query(self):
        sim, net, index = make_world()

        def client():
            for i in range(5):
                yield from net.call(
                    "s1", "s0", "mds-index", "register",
                    payload={"key": f"t{i}", "xml": type_doc(f"type{i}").to_string()},
                )
            hits = yield from net.call(
                "s1", "s0", "mds-index", "query",
                payload="//ActivityType[@name='type3']",
            )
            return hits

        hits = run(sim, client())
        assert len(hits) == 1
        assert hits[0]["attrib"]["name"] == "type3"
        assert index.resource_count == 5

    def test_unregister(self):
        sim, net, index = make_world()

        def client():
            yield from net.call(
                "s1", "s0", "mds-index", "register",
                payload={"key": "k", "xml": type_doc("gone").to_string()},
            )
            out = yield from net.call(
                "s1", "s0", "mds-index", "unregister", payload={"key": "k"}
            )
            return out

        out = run(sim, client())
        assert out["removed"] is True
        assert index.resource_count == 0

    def test_query_cost_grows_with_registry_size(self):
        """The O(n) XPath-scan behaviour behind paper Fig. 11."""
        times = {}
        for n in (10, 120):
            sim, net, index = make_world(per_visit_cost=5e-5)
            for i in range(n):
                index.register_document(
                    _epr(f"t{i}"), type_doc(f"type{i}")
                )

            def client():
                start = sim.now
                yield from net.call(
                    "s1", "s0", "mds-index", "query",
                    payload="//ActivityType[@name='type1']",
                )
                return sim.now - start

            times[n] = run(sim, client())
        assert times[120] > times[10] * 1.5


class TestOverloadCollapse:
    def test_thrash_multiplier_kicks_in(self):
        sim, net, index = make_world(heap_node_budget=100.0)
        for i in range(50):
            index.register_document(_epr(f"t{i}"), type_doc(f"type{i}"))
        index._active_queries = 11
        assert index._pressure_multiplier() > 1.0
        index._active_queries = 0

    def test_no_thrash_under_budget(self):
        sim, net, index = make_world()
        for i in range(10):
            index.register_document(_epr(f"t{i}"), type_doc(f"type{i}"))
        index._active_queries = 2
        assert index._pressure_multiplier() == 1.0
        index._active_queries = 0

    def test_collapse_under_many_clients_and_resources(self):
        """>130 resources and >10 clients: service time explodes."""
        sim, net, index = make_world(n_sites=4, heap_node_budget=4000.0)
        for i in range(150):
            index.register_document(_epr(f"t{i}"), type_doc(f"type{i}"))
        completed = []

        def client(cid):
            while True:
                yield from net.call(
                    f"s{1 + cid % 3}", "s0", "mds-index", "query",
                    payload="//ActivityType[@name='type7']",
                )
                completed.append(sim.now)

        for cid in range(14):
            sim.process(client(cid))
        sim.run(until=60)
        throughput = len(completed) / 60.0
        assert throughput < 2.0  # effectively unresponsive
        assert index.thrashed_queries > 0


class TestWorkerPoolUnderDeadlines:
    """A query that gives up while waiting for a worker leaves the pool."""

    QUERY = "//ActivityType[@name='type1']"

    def test_timed_out_queued_query_withdraws_its_request(self):
        sim, net, index = make_world(workers=1, fixed_cost=1.0)
        outcomes = []

        def client(name, retry=None):
            try:
                yield from net.call("s1", "s0", "mds-index", "query",
                                    payload=self.QUERY, retry=retry)
                outcomes.append((name, "ok"))
            except RpcTimeout:
                outcomes.append((name, "timeout"))

        sim.process(client("A"))                          # holds the one worker
        sim.process(client("B", RetryPolicy.single(0.5)))  # expires in its queue
        sim.run()
        assert outcomes == [("B", "timeout"), ("A", "ok")]
        # B's request left the queue with it: the worker is free again
        assert index.busy_workers == 0 and index.queued_queries == 0
        assert index._active_queries == 0
        sim.process(client("C"))
        sim.run()
        assert outcomes[-1] == ("C", "ok") and index.queries_served == 2

    def test_quiescence_check_names_the_index_with_a_leaked_worker(self):
        vo = build_vo(n_sites=2, seed=3)
        vo.network.stop()
        vo.sim.run()
        assert audit(vo.network) == []
        site = vo.site_names[1]
        index = vo.stack(site).index
        index._worker_pool.request()  # a grant nobody will ever release
        vo.sim.run()
        assert audit(vo.network) == [Violation(
            f"{index.name}@{site}", "workers-held-by-queries",
            "1 held, 0 queued, 0 in flight")]


class TestHierarchy:
    def test_site_keepalive_and_expiry(self):
        sim, net, _local = make_world(n_sites=3)
        community = IndexService(
            net, "s1", community=True, registration_ttl=50.0, name="community-index"
        )
        leaf = IndexService(
            net, "s2", upstream="s1", keepalive_interval=10.0, name="leaf-index",
            upstream_service="community-index",
        )
        leaf.start()
        sim.run(until=30)
        # the community host itself is always a live member
        assert community.live_sites() == ["s1", "s2"]
        net.faults.crash("s2")
        sim.run(until=200)
        assert community.live_sites() == ["s1"]

    def test_probe_reports_community_status(self):
        sim, net, index = make_world()
        community = IndexService(net, "s1", community=True, name="community")

        def client():
            local = yield from net.call("s2", "s0", "mds-index", "probe")
            root = yield from net.call("s2", "s1", "community", "probe")
            return local, root

        local, root = run(sim, client())
        assert local["community"] is False
        assert root["community"] is True

    def test_register_site_on_default_index_rejected(self):
        sim, net, index = make_world()
        caught = []

        def client():
            try:
                yield from net.call(
                    "s1", "s0", "mds-index", "register_site", payload={"site": "s1"}
                )
            except RuntimeError:
                caught.append(True)

        sim.process(client())
        sim.run()
        assert caught == [True]


def _epr(key):
    from repro.wsrf.resource import EndpointReference

    return EndpointReference(address="s0/mds-index", service="mds-index", key=key)


class TestResidentNodeCount:
    """The resident-node total is the snapshot's own size: one source."""

    def _epr(self, index, key):
        from repro.wsrf.resource import EndpointReference

        return EndpointReference(address=f"s{key}/{index.name}",
                                 service=index.name, key=f"k{key}")

    @staticmethod
    def _resident(index):
        return sum(e.content.count_nodes() for e in index.aggregation.entries())

    def test_forest_size_tracks_register_replace_unregister(self):
        sim, net, index = make_world()
        assert index.aggregation.documents().size == 0
        docs = [type_doc(f"T{i}") for i in range(5)]
        for i, doc in enumerate(docs):
            index.register_document(self._epr(index, i), doc)
        assert index.aggregation.documents().size == sum(d.count_nodes() for d in docs)

        # replace an entry with a bigger document: no double counting
        big = type_doc("T0")
        for j in range(7):
            big.make_child("Extra", text=str(j))
        index.register_document(self._epr(index, 0), big)
        grown = index.aggregation.documents().size
        assert grown == self._resident(index)
        assert grown == sum(d.count_nodes() for d in docs) + 7
        index.register_document(self._epr(index, 0), big)  # idempotent
        assert index.aggregation.documents().size == grown

        assert index.unregister_document(self._epr(index, 3))
        assert not index.unregister_document(self._epr(index, 3))
        assert index.aggregation.documents().size == grown - docs[3].count_nodes()

    def test_forest_size_matches_count_nodes_after_churn(self):
        sim, net, index = make_world()
        for round_no in range(3):
            for i in range(6):
                index.register_document(self._epr(index, i),
                                        type_doc(f"T{round_no}-{i}"))
            for i in range(0, 6, 2):
                index.unregister_document(self._epr(index, i))
            assert index.aggregation.documents().size == self._resident(index)
        assert index.aggregation.documents().size > 0

    def test_pressure_multiplier_sees_the_current_snapshot(self):
        sim, net, index = make_world(heap_node_budget=100.0)
        index._active_queries = 10
        for i in range(2):  # 6 nodes x 10 queries: under the 0.75 threshold
            index.register_document(self._epr(index, i), type_doc(f"T{i}"))
        assert index._pressure_multiplier() == 1.0
        for i in range(2, 4):  # 12 nodes x 10 queries: over the heap budget
            index.register_document(self._epr(index, i), type_doc(f"T{i}"))
        assert index._pressure_multiplier() > 1.0
        for i in range(3):
            index.unregister_document(self._epr(index, i))
        assert index._pressure_multiplier() == 1.0


class TestKeepaliveFailures:
    def _leaf(self, net, **kwargs):
        return IndexService(
            net, "s2", upstream="s1", keepalive_interval=10.0, name="leaf-index",
            upstream_service="community-index", **kwargs,
        )

    def test_upstream_offline_then_back_rejoins(self):
        sim, net, _local = make_world(n_sites=3)
        community = IndexService(
            net, "s1", community=True, registration_ttl=25.0, name="community-index"
        )
        leaf = self._leaf(net)
        leaf.start()
        sim.run(until=15)
        assert community.live_sites() == ["s1", "s2"]
        net.faults.crash("s1")
        sim.run(until=100)
        assert leaf.keepalive.running  # kept trying through the outage
        assert community.live_sites() == ["s1"]  # membership decayed
        net.faults.restart("s1")
        sim.run(until=125)
        assert community.live_sites() == ["s1", "s2"]

    def test_upstream_service_removed_keeps_trying(self):
        sim, net, _local = make_world(n_sites=3)
        leaf = self._leaf(net)  # nobody hosts community-index: ServiceNotFound
        leaf.start()
        sim.run(until=35)
        assert leaf.keepalive.running
        community = IndexService(
            net, "s1", community=True, registration_ttl=25.0, name="community-index"
        )
        sim.run(until=50)
        assert community.live_sites() == ["s1", "s2"]

    def test_programming_error_in_the_loop_is_not_swallowed(self):
        sim, net, _local = make_world(n_sites=3)
        IndexService(net, "s1", community=True, name="community-index")
        leaf = self._leaf(net)

        def broken_call(*args, **kwargs):
            raise TypeError("bad keepalive payload")
            yield

        leaf.call = broken_call
        leaf.start()
        with pytest.raises(TypeError, match="bad keepalive payload"):
            sim.run(until=15)
        assert not leaf.keepalive.running
