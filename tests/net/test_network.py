"""Unit tests for topology, RPC transport, and the security model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Network, SecurityPolicy, Topology
from repro.net.network import RpcTimeout, ServiceNotFound
from repro.net.service import EchoService, UnknownOperation
from repro.net.topology import _shortest_path
from repro.simkernel import Simulator
from repro.simkernel.errors import OfflineError


def make_net(security=None, sites=("A", "B", "C")):
    sim = Simulator(seed=1)
    topo = Topology.full_mesh(sites, latency=0.005, bandwidth=1e7)
    net = Network(sim, topo, security=security)
    for s in sites:
        net.add_node(s, cores=2)
    return sim, net


class TestTopology:
    def test_path_metrics_direct(self):
        topo = Topology()
        topo.add_link("A", "B", latency=0.01, bandwidth=1e6)
        lat, bw = topo.path_metrics("A", "B")
        assert lat == pytest.approx(0.01)
        assert bw == pytest.approx(1e6)

    def test_path_metrics_multihop_bottleneck(self):
        topo = Topology()
        topo.add_link("A", "B", latency=0.01, bandwidth=1e6)
        topo.add_link("B", "C", latency=0.02, bandwidth=5e5)
        lat, bw = topo.path_metrics("A", "C")
        assert lat == pytest.approx(0.03)
        assert bw == pytest.approx(5e5)

    def test_loopback(self):
        topo = Topology()
        topo.add_site("A")
        lat, bw = topo.path_metrics("A", "A")
        assert lat < 1e-3
        assert bw > 1e8

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_site("A")
        topo.add_site("B")
        with pytest.raises(ValueError):
            topo.path_metrics("A", "B")

    def test_star_builder(self):
        topo = Topology.star("hub", ["a", "b", "c"])
        assert topo.has_path("a", "c")
        lat_direct, _ = topo.path_metrics("a", "hub")
        lat_via, _ = topo.path_metrics("a", "b")
        assert lat_via == pytest.approx(2 * lat_direct)

    def test_invalid_link_params(self):
        with pytest.raises(ValueError):
            Topology().add_link("A", "B", latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            Topology().add_link("A", "B", latency=0, bandwidth=0)


class TestPathEdgeCache:
    """``path_edges`` is served from a memo; it must equal a fresh search."""

    @pytest.fixture()
    def searches(self, monkeypatch):
        """``(src, dst)`` of every path search the topology runs."""
        pairs = []
        search = Topology._search
        monkeypatch.setattr(Topology, "_search",
                            lambda self, a, b: pairs.append((a, b)) or search(self, a, b))
        return pairs

    @staticmethod
    def uncached_edges(topo, src, dst):
        path = _shortest_path(topo._adj, src, dst)
        return [tuple(sorted(hop)) for hop in zip(path, path[1:])]

    @staticmethod
    def ring(n=8):
        topo = Topology()
        for i in range(n):  # uneven latencies, plus exact ties across the ring
            topo.add_link(f"s{i}", f"s{(i + 1) % n}", latency=0.001 * (1 + i % 3),
                          bandwidth=1e6 * (1 + i))
        return topo

    def test_cached_edges_equal_the_uncached_path_in_both_directions(self, searches):
        topo = self.ring()
        sites = topo.sites()
        expected = {(a, b): self.uncached_edges(topo, a, b)
                    for a in sites for b in sites if a != b}
        for _ in range(3):
            for (a, b), edges in expected.items():
                assert list(topo.path_edges(a, b)) == edges
                topo.path_metrics(a, b)
        assert topo.path_edges("s0", "s0") == ()
        # one search per ordered pair, however often either query repeats
        assert sorted(searches) == sorted(expected)

    def test_routes_hold_each_pairs_metrics_and_edges(self, searches):
        for topo in (self.ring(), Topology.star("hub", ["a", "b", "c"])):
            sites = topo.sites()
            for src in sites:  # reverse directions first, then forwards
                for dst in reversed(sites):
                    route = topo.routes[src, dst]
                    assert route == (*topo.path_metrics(src, dst),
                                     tuple(self.uncached_edges(topo, src, dst)))
                    assert topo.routes[src, dst] is route
            with pytest.raises(ValueError):
                topo.routes[sites[0], "nowhere"]
        # one search per ordered pair of distinct sites (each failed
        # lookup searches again)
        assert len(searches) == 8 * 7 + 4 * 3 + 2

    def test_metrics_and_edges_describe_the_same_path(self):
        topo = self.ring()
        hops = {tuple(sorted((link.a, link.b))): link for link in topo.links()}
        for dst in topo.sites()[1:]:
            latency, bandwidth = topo.path_metrics("s0", dst)
            path = [hops[e] for e in topo.path_edges("s0", dst)]
            assert latency == pytest.approx(sum(h.latency for h in path))
            assert bandwidth == min(h.bandwidth for h in path)

    def test_add_link_invalidates_cached_edges(self):
        topo = self.ring()
        before = topo.path_edges("s0", "s4")
        assert len(before) == 4
        topo.add_link("s0", "s4", latency=0.0001, bandwidth=1e6)
        assert topo.path_edges("s0", "s4") == (("s0", "s4"),)
        assert topo.path_metrics("s0", "s4") == (0.0001, 1e6)
        assert list(topo.path_edges("s0", "s4")) == self.uncached_edges(topo, "s0", "s4")

    def test_adding_a_site_keeps_the_caches(self, searches):
        topo = self.ring()
        assert "s3" in topo and "nowhere" not in topo
        for _ in range(2):
            topo.path_edges("s0", "s4")  # fills both memos
            topo.path_metrics("s0", "s4")
            topo.add_site("s3")
            topo.add_site("s8")  # no links yet, so on no path
        assert searches == [("s0", "s4")]
        assert topo.sites()[-1] == "s8" and not topo.has_path("s0", "s8")


#: a few site names, so links re-add, loop back and leave parts unjoined
_SITES = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("site"), _SITES),
    # small integer multiples of one latency, so exact ties are common
    st.tuples(st.just("link"), _SITES, _SITES, st.integers(0, 3),
              st.sampled_from([1e6, 2e6, 5e6])),
), min_size=4, max_size=24)


class TestNetworkxReference:
    """The adjacency dict and its search against networkx, a test-only
    reference: for a source-target pair ``nx.shortest_path(weight=...)``
    runs ``nx.bidirectional_dijkstra``, the search the topology mirrors."""

    @settings(max_examples=300, deadline=None)
    @given(_OPS)
    # equal-latency paths that only the heap's first-in-first-out order
    # and the forward-first alternation choose between
    @example([("link", "g", "a", 1, 1e6), ("link", "d", "c", 0, 2e6), ("link", "g", "b", 2, 1e6),
              ("link", "c", "b", 0, 2e6), ("link", "d", "g", 2, 1e6)])
    @example([("link", "f", "e", 2, 2e6), ("link", "e", "d", 3, 2e6), ("link", "d", "c", 1, 5e6),
              ("site", "e"), ("link", "c", "f", 2, 5e6)])
    def test_topology_matches_networkx(self, ops):
        nx = pytest.importorskip("networkx")
        topo, graph = Topology(), nx.Graph()
        for op in ops:
            if op[0] == "site":
                topo.add_site(op[1])
                graph.add_node(op[1])
            else:
                _, a, b, units, bandwidth = op
                topo.add_link(a, b, latency=0.001 * units, bandwidth=bandwidth)
                graph.add_edge(a, b, latency=0.001 * units, bandwidth=bandwidth)
        assert topo.sites() == list(graph.nodes)
        assert [(l.a, l.b, l.latency, l.bandwidth) for l in topo.links()] == [
            (a, b, d["latency"], d["bandwidth"]) for a, b, d in graph.edges(data=True)]
        names = list(graph.nodes) + ["unknown"]
        first = {}  # the first search of a pair fixes both directions' metrics
        for src in names:
            for dst in names:
                assert topo.has_path(src, dst) == (
                    src in graph and dst in graph and nx.has_path(graph, src, dst))
                if src == dst:
                    assert topo.path_edges(src, dst) == ()
                    assert topo.path_metrics(src, dst) == (
                        Topology.LOOPBACK_LATENCY, Topology.LOOPBACK_BANDWIDTH)
                    continue
                try:
                    _, path = nx.bidirectional_dijkstra(graph, src, dst, weight="latency")
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    with pytest.raises(ValueError):
                        topo.path_edges(src, dst)
                    with pytest.raises(ValueError):
                        topo.path_metrics(src, dst)
                    continue
                hops = list(zip(path, path[1:]))
                assert topo.path_edges(src, dst) == tuple(tuple(sorted(h)) for h in hops)
                latency, bandwidth = 0.0, float("inf")
                for u, v in hops:
                    latency += graph.edges[u, v]["latency"]
                    bandwidth = min(bandwidth, graph.edges[u, v]["bandwidth"])
                metrics = first.setdefault(frozenset((src, dst)), (latency, bandwidth))
                assert topo.path_metrics(src, dst) == metrics
                assert topo.rank_sources(dst, [src]) == [(src, *metrics)]


class TestRpc:
    def test_echo_roundtrip(self):
        sim, net = make_net()
        EchoService(net, "B")
        out = {}

        def client():
            out["v"] = yield from net.call("A", "B", "echo", "echo", payload="hi")

        sim.process(client())
        sim.run()
        assert out["v"] == "hi"
        assert sim.now > 0.01  # at least one RTT
        assert net.total_messages == 2

    def test_local_call_is_fast(self):
        sim, net = make_net()
        EchoService(net, "A", demand=0.0)

        def client():
            yield from net.call("A", "A", "echo", "echo", payload="x")

        sim.process(client())
        sim.run()
        assert sim.now < 0.005

    def test_remote_exception_propagates(self):
        sim, net = make_net()
        EchoService(net, "B")
        caught = []

        def client():
            try:
                yield from net.call("A", "B", "echo", "fail")
            except RuntimeError as e:
                caught.append(str(e))

        sim.process(client())
        sim.run()
        assert caught and "failure" in caught[0]

    def test_unknown_service_and_method(self):
        sim, net = make_net()
        EchoService(net, "B")
        errors = []

        def client():
            try:
                yield from net.call("A", "B", "nope", "echo")
            except ServiceNotFound:
                errors.append("svc")
            try:
                yield from net.call("A", "B", "echo", "nope")
            except UnknownOperation:
                errors.append("op")

        sim.process(client())
        sim.run()
        assert errors == ["svc", "op"]

    def test_offline_target_raises(self):
        sim, net = make_net()
        EchoService(net, "B")
        net.faults.crash("B")
        errors = []

        def client():
            try:
                yield from net.call("A", "B", "echo", "echo")
            except OfflineError:
                errors.append(sim.now)

        sim.process(client())
        sim.run()
        assert errors and errors[0] >= net.connect_fail_delay

    def test_call_with_timeout_fires(self):
        sim, net = make_net()
        EchoService(net, "B", demand=50.0)  # extremely slow handler
        errors = []

        def client():
            try:
                yield from net.call(
                    "A", "B", "echo", "echo", timeout=0.5
                )
            except RpcTimeout:
                errors.append(sim.now)

        sim.process(client())
        sim.run()
        assert errors and errors[0] == pytest.approx(0.5, abs=0.01)

    def test_call_with_timeout_success(self):
        sim, net = make_net()
        EchoService(net, "B")
        out = {}

        def client():
            out["v"] = yield from net.call(
                "A", "B", "echo", "echo", payload=123, timeout=5.0
            )

        sim.process(client())
        sim.run()
        assert out["v"] == 123


class TestSecurity:
    def test_https_slower_than_http(self):
        durations = {}
        for label, policy in [("http", SecurityPolicy.http()), ("https", SecurityPolicy.https())]:
            sim, net = make_net(security=policy)
            EchoService(net, "B")

            def client():
                yield from net.call("A", "B", "echo", "echo", payload="x" * 500)

            sim.process(client())
            sim.run()
            durations[label] = sim.now
        assert durations["https"] > durations["http"]

    def test_https_halves_saturation_throughput(self):
        """Closed-loop saturation throughput should drop ~2x with TLS."""
        results = {}
        for label, policy in [("http", SecurityPolicy.http()), ("https", SecurityPolicy.https())]:
            sim, net = make_net(security=policy)
            svc = EchoService(net, "B", demand=0.004)
            horizon = 30.0

            def client():
                while True:
                    yield from net.call("A", "B", "echo", "echo", payload="y" * 400)

            for _ in range(8):
                sim.process(client())
            sim.run(until=horizon)
            results[label] = svc.requests_handled / horizon
        ratio = results["http"] / results["https"]
        assert 1.5 < ratio < 3.0

    def test_policy_disabled_costs_zero(self):
        p = SecurityPolicy.http()
        assert p.server_cpu_demand(10_000) == 0.0
        assert p.client_cpu_demand(10_000) == 0.0
        assert p.handshake_latency(0.01) == 0.0
