"""Replica selection against its reference: one pass, same choice.

:func:`reference_select_source` is ``GridFtpService._select_source`` as
it was while it asked liveness of *every* replica and had
``Topology.rank_sources`` sort a triple per live site to read the head
and its ties.  The service now keeps the least ``(latency, -bandwidth,
serving, name)`` in a single pass and asks liveness only of a candidate
that would take the lead; these tests hold the two to the same ``(site,
path)`` and the same ``replica_hits`` on generated catalogs — offline
replicas, sites the network or the topology never heard of,
equal-metric ties, and the fetching site itself among the candidates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp.service import GridFtpService, UrlCatalog
from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator
from repro.site.filesystem import Filesystem

URL = "http://origin.example/app.tgz"
ME = "me"
LINKED = ["s1", "s2", "s3", "s4", "s5"]
#: a node nothing links to, a topology site with no runtime, and a name
#: neither the topology nor the network knows
ISLE, GHOST, VOID = "isle", "ghost", "void"
NAMES = [ME] + LINKED + [ISLE, GHOST, VOID]


def reference_select_source(self, url, origin):
    """Nearest live copy of ``url``: topology rank, load tie-break."""
    catalog = self.url_catalog
    candidates = {origin[0]: origin[1]}
    for site, path in catalog.replicas.get(url, ()):
        candidates.setdefault(site, path)
    if len(candidates) > 1:
        live = [
            site for site in candidates
            if site == self.node_name or _source_online(self, site)
        ]
        ranked = self.network.topology.rank_sources(self.node_name, live)
        if ranked:
            best_latency, best_bandwidth = ranked[0][1], ranked[0][2]
            tied = [
                site for site, latency, bandwidth in ranked
                if latency == best_latency and bandwidth == best_bandwidth
            ]
            chosen = min(tied, key=lambda s: (catalog.serving.get(s, 0), s))
            if (chosen, candidates[chosen]) != origin:
                self.replica_hits += 1
            return chosen, candidates[chosen]
    return origin


def _source_online(self, site):
    try:
        return self.network.is_online(site)
    except ValueError:
        return False


#: few distinct metrics, so equal-(latency, bandwidth) ties are common
links = st.lists(
    st.tuples(st.sampled_from([ME] + LINKED + [GHOST]),
              st.sampled_from([ME] + LINKED + [GHOST]),
              st.sampled_from([0.001, 0.002]),
              st.sampled_from([1e6, 2e6])).filter(lambda l: l[0] != l[1]),
    max_size=12)
worlds = st.fixed_dictionaries({
    "links": links,
    "offline": st.sets(st.sampled_from([ME] + LINKED + [ISLE])),
    "origin": st.sampled_from(NAMES),
    "replicas": st.lists(
        st.tuples(st.sampled_from(NAMES),
                  st.sampled_from(["/a/app.tgz", "/b/app.tgz"])),
        max_size=10),
    "serving": st.dictionaries(st.sampled_from(NAMES), st.integers(0, 2)),
})


def build(world):
    topo = Topology()
    for a, b, latency, bandwidth in world["links"]:
        topo.add_link(a, b, latency, bandwidth)
    topo.add_site(GHOST)
    net = Network(Simulator(seed=1), topo)
    for name in [ME] + LINKED + [ISLE]:
        net.add_node(name)
    for name in world["offline"]:
        net.set_online(name, False)
    origin = (world["origin"], "/www/app.tgz")
    catalog = UrlCatalog()
    catalog.publish(URL, *origin)
    for site, path in world["replicas"]:
        catalog.add_replica(URL, site, path)
    catalog.serving.update(world["serving"])
    service = GridFtpService(net, ME, fs=Filesystem(), url_catalog=catalog,
                             replica_aware=True)
    return service, origin


@settings(max_examples=300, deadline=None)
@given(worlds)
def test_one_pass_selection_matches_the_reference(world):
    expected_service, origin = build(world)
    expected = reference_select_source(expected_service, URL, origin)
    service, _ = build(world)
    assert service._select_source(URL, origin) == expected
    assert service.replica_hits == expected_service.replica_hits
    # a second selection (warm path cache) still agrees
    assert service._select_source(URL, origin) == expected


def test_liveness_is_asked_only_of_a_candidate_that_would_lead():
    topo = Topology()
    topo.add_link(ME, "near", 0.001, 2e6)
    for index in range(20):
        topo.add_link(ME, f"far{index:02d}", 0.002, 2e6)
    net = Network(Simulator(seed=1), topo)
    for name in topo.sites():
        net.add_node(name)
    catalog = UrlCatalog()
    catalog.publish(URL, "far00", "/www/app.tgz")
    catalog.add_replica(URL, "near", "/tmp/app.tgz")
    for index in range(1, 20):
        catalog.add_replica(URL, f"far{index:02d}", "/tmp/app.tgz")
    service = GridFtpService(net, ME, fs=Filesystem(), url_catalog=catalog,
                             replica_aware=True)
    asked = []
    is_online = net.is_online
    net.is_online = lambda name: asked.append(name) or is_online(name)
    assert service._select_source(URL, ("far00", "/www/app.tgz")) == (
        "near", "/tmp/app.tgz")
    assert asked == ["far00", "near"]  # the origin led until near beat it

    # equal metrics: only a candidate ahead on (serving, name) is asked
    del asked[:]
    net.set_online("near", False)
    catalog.serving["far00"] = 1
    assert service._select_source(URL, ("far00", "/www/app.tgz")) == (
        "far01", "/tmp/app.tgz")
    assert asked == ["far00", "near", "far01"]
