"""Unit tests for the GridFTP transfer substrate."""

import pytest

from repro.gridftp import GridFtpService, TransferError, UrlCatalog, install_gridftp
from repro.net import Network, Topology
from repro.simkernel import Simulator
from repro.site import GridSite, SiteDescription


def make_world(bandwidth=1e6):
    sim = Simulator(seed=7)
    topo = Topology.full_mesh(["src", "dst", "origin"], latency=0.005, bandwidth=bandwidth)
    net = Network(sim, topo)
    sites = {
        name: GridSite(net, SiteDescription(name=name)) for name in ("src", "dst", "origin")
    }
    catalog = UrlCatalog()
    services = install_gridftp(net, sites.values(), url_catalog=catalog)
    return sim, net, sites, services, catalog


def run(sim, gen):
    proc = sim.process(gen)
    sim.run()
    assert proc.ok, proc.value
    return proc.value


class TestFetch:
    def test_remote_fetch_creates_file(self):
        sim, net, sites, services, _ = make_world()
        sites["src"].fs.put_file("/data/app.tgz", size=500_000, md5sum="abc")

        def client():
            entry = yield from services["dst"].fetch("src", "/data/app.tgz", "/tmp/app.tgz")
            return entry

        entry = run(sim, client())
        assert sites["dst"].fs.exists("/tmp/app.tgz")
        assert entry.size == 500_000
        assert entry.md5sum == "abc"

    def test_transfer_time_scales_with_size(self):
        durations = {}
        for size in (100_000, 2_000_000):
            sim, net, sites, services, _ = make_world(bandwidth=1e6)
            sites["src"].fs.put_file("/data/f", size=size)

            def client():
                yield from services["dst"].fetch("src", "/data/f", "/tmp/f")

            run(sim, client())
            durations[size] = sim.now
        assert durations[2_000_000] > durations[100_000] + 1.0

    def test_md5_verification(self):
        sim, net, sites, services, _ = make_world()
        sites["src"].fs.put_file("/data/f", size=100, md5sum="realsum")
        caught = []

        def client():
            try:
                yield from services["dst"].fetch(
                    "src", "/data/f", "/tmp/f", expected_md5="othersum"
                )
            except TransferError as e:
                caught.append(str(e))

        sim.process(client())
        sim.run()
        assert caught and "md5 mismatch" in caught[0]
        assert not sites["dst"].fs.exists("/tmp/f")

    def test_missing_source_raises(self):
        sim, net, sites, services, _ = make_world()
        caught = []

        def client():
            try:
                yield from services["dst"].fetch("src", "/data/nothing", "/tmp/x")
            except TransferError:
                caught.append(True)

        sim.process(client())
        sim.run()
        assert caught == [True]

    def test_local_fetch_no_network(self):
        sim, net, sites, services, _ = make_world()
        sites["dst"].fs.put_file("/data/f", size=10_000_000)

        def client():
            yield from services["dst"].fetch("dst", "/data/f", "/tmp/f")

        run(sim, client())
        # 10 MB at WAN bandwidth would take ~10s; local copy is near-instant.
        assert sim.now < 1.0

    def test_transfer_records_kept(self):
        sim, net, sites, services, _ = make_world()
        sites["src"].fs.put_file("/data/f", size=1000)

        def client():
            yield from services["dst"].fetch("src", "/data/f", "/tmp/f")

        run(sim, client())
        assert len(services["dst"].transfers) == 1
        record = services["dst"].transfers[0]
        assert record.source == "src"
        assert record.duration > 0
        assert services["dst"].bytes_moved == 1000


class TestUrlCatalog:
    def test_fetch_url(self):
        sim, net, sites, services, catalog = make_world()
        sites["origin"].fs.put_file("/www/povlinux-3.6.tgz", size=9_000_000, md5sum="m")
        catalog.publish(
            "http://www.povray.org/povlinux-3.6.tgz", "origin", "/www/povlinux-3.6.tgz"
        )

        def client():
            entry = yield from services["dst"].fetch_url(
                "http://www.povray.org/povlinux-3.6.tgz", "/tmp/povray.tgz",
                expected_md5="m",
            )
            return entry

        entry = run(sim, client())
        assert entry.source_url.startswith("http://")
        assert sites["dst"].fs.get_file("/tmp/povray.tgz").size == 9_000_000

    def test_unknown_url_raises(self):
        sim, net, sites, services, catalog = make_world()
        caught = []

        def client():
            try:
                yield from services["dst"].fetch_url("http://nowhere/x.tgz", "/tmp/x")
            except TransferError:
                caught.append(True)

        sim.process(client())
        sim.run()
        assert caught == [True]


class TestReplicaFallback:
    URL = "http://www.povray.org/povlinux-3.6.tgz"

    def test_an_origin_fallback_credits_origin_with_the_load(self):
        """A stale replica fails, so the fetch pulls from origin: for that
        whole download ``serving`` counts origin, not the dropped replica."""
        sim = Simulator(seed=7)
        topo = Topology()
        topo.add_link("dst", "src", latency=0.001, bandwidth=1e6)
        topo.add_link("dst", "origin", latency=0.005, bandwidth=1e6)
        net = Network(sim, topo)
        sites = {name: GridSite(net, SiteDescription(name=name))
                 for name in ("src", "dst", "origin")}
        catalog = UrlCatalog()
        services = install_gridftp(net, sites.values(), url_catalog=catalog)
        services["dst"].replica_aware = True
        sites["origin"].fs.put_file("/www/pov.tgz", size=2_000_000)
        catalog.publish(self.URL, "origin", "/www/pov.tgz")
        catalog.add_replica(self.URL, "src", "/tmp/gone.tgz")  # never written
        seen = []

        def probe():
            yield sim.timeout(1.0)  # the origin reply is on the wire
            seen.append(dict(catalog.serving))

        sim.process(probe())
        entry = run(sim, services["dst"].fetch_url(self.URL, "/tmp/pov.tgz"))
        assert entry.size == 2_000_000 and services["dst"].replica_hits == 1
        assert net.node("origin").bytes_out == 2_000_000
        assert seen == [{"origin": 1}]
        assert catalog.serving == {}
        assert catalog.replicas[self.URL] == [("dst", "/tmp/pov.tgz")]
