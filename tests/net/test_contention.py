"""Tests for the opt-in link bandwidth-contention model."""

import heapq

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gridftp.service import GridFtpService, UrlCatalog
from repro.invariants import audit
from repro.net import Network, Topology
from repro.net.interceptors import RpcTimeout
from repro.net.message import Response
from repro.net.service import Service
from repro.simkernel import Simulator
from repro.site.description import SiteDescription
from repro.site.gridsite import GridSite
from repro.vo import ORIGIN, build_vo


def make_world(contention):
    sim = Simulator(seed=61)
    topo = Topology()
    topo.add_link("src", "dst", latency=0.001, bandwidth=1e6)
    topo.add_link("src", "other", latency=0.001, bandwidth=1e6)
    net = Network(sim, topo, contention=contention)
    catalog = UrlCatalog()
    sites = {}
    for name in ("src", "dst", "other"):
        sites[name] = GridSite(net, SiteDescription(name=name))
        GridFtpService(net, name, fs=sites[name].fs, url_catalog=catalog)
    sites["src"].fs.put_file("/data/big", size=2_000_000)
    return sim, net, sites


def run_parallel_fetches(contention, destinations):
    sim, net, sites = make_world(contention)
    finish_times = {}

    def fetch(dst, index):
        service = net.node(dst).services["gridftp"]
        yield from service.fetch("src", "/data/big", f"/tmp/big{index}")
        finish_times[(dst, index)] = sim.now

    for index, dst in enumerate(destinations):
        sim.process(fetch(dst, index))
    sim.run()
    return finish_times


class TestContention:
    def test_shared_link_halves_throughput(self):
        solo = run_parallel_fetches(True, ["dst"])
        pair = run_parallel_fetches(True, ["dst", "dst"])
        solo_time = max(solo.values())
        pair_time = max(pair.values())
        # two 2MB transfers over one 1MB/s link: ~2x the solo duration
        assert pair_time > 1.6 * solo_time

    def test_disjoint_links_unaffected(self):
        pair_disjoint = run_parallel_fetches(True, ["dst", "other"])
        solo = run_parallel_fetches(True, ["dst"])
        # different spokes of the star: no sharing beyond the src node
        # (src-dst and src-other are distinct edges)
        assert max(pair_disjoint.values()) == pytest.approx(
            max(solo.values()), rel=0.2
        )

    def test_disabled_by_default(self):
        sim = Simulator()
        topo = Topology()
        topo.add_link("a", "b", latency=0.001, bandwidth=1e6)
        net = Network(sim, topo)
        assert net.contention is False
        pair = run_parallel_fetches(False, ["dst", "dst"])
        solo = run_parallel_fetches(False, ["dst"])
        # without contention, parallel transfers don't slow each other
        assert max(pair.values()) == pytest.approx(max(solo.values()), rel=0.15)

    def test_link_counters_drain(self):
        sim, net, sites = make_world(True)

        def fetch(index):
            service = net.node("dst").services["gridftp"]
            yield from service.fetch("src", "/data/big", f"/tmp/b{index}")

        for index in range(3):
            sim.process(fetch(index))
        sim.run()
        assert net._link_active == {}


# -- the contended leg, exactly ----------------------------------------------

class Sink(Service):
    """Answers ``leg`` with a reply of ``payload`` bytes; notes when each
    request arrived (its request leg's end) under the request's ``tag``."""

    SERVICE_NAME = "sink"

    def __init__(self, network, node_name, arrivals):
        super().__init__(network, node_name)
        self.arrivals = arrivals

    def op_leg(self, message):
        tag, reply = message.payload
        self.arrivals[tag] = self.sim.now
        return Response(value=None, size=reply)
        yield  # pragma: no cover - a generator that never waits


def star_world(**network):
    """A star around ``h`` with leaves ``a``, ``b``, ``c``: 1 ms, 1 MB/s
    links, no marshalling CPU, so a call is its two wire legs."""
    sim = Simulator(seed=3)
    net = Network(sim, Topology.star("h", ["a", "b", "c"], latency=0.001,
                                     bandwidth=1e6),
                  marshal_cpu_per_kb=0.0, contention=True, **network)
    arrivals = {}
    for name in ("h", "a", "b", "c"):
        net.add_node(name)
        Sink(net, name, arrivals)
    return sim, net, arrivals


def leg_call(net, tag, src, dst, request, reply, start, ends, **kwargs):
    sim = net.sim
    yield sim.timeout(start)
    try:
        yield from net.call(src, dst, "sink", "leg", payload=(tag, reply),
                            size=request, **kwargs)
    except RpcTimeout:
        ends[tag] = ("timeout", sim.now, dict(net._link_active))
        return
    ends[tag] = sim.now


def test_two_overlapping_legs_end_where_the_formula_puts_them():
    """``a -> b`` starts alone; ``c -> b`` starts 0.1 s later while the
    first holds ``b-h``, so it runs at half the link; the first reply
    then starts while the second request still holds ``b-h``."""
    sim, net, arrivals = star_world()
    ends = {}
    sim.process(leg_call(net, "x", "a", "b", 500_000, 100_000, 0.0, ends))
    sim.process(leg_call(net, "y", "c", "b", 250_000, 300_000, 0.1, ends))
    sim.run()
    path = 0.001 + 0.001
    x_request = 0.0 + (path + 500_000 / (1e6 / 1))
    y_request = 0.1 + (path + 250_000 / (1e6 / 2))
    x_reply = x_request + (path + 100_000 / (1e6 / 2))  # y's request holds b-h
    y_reply = y_request + (path + 300_000 / (1e6 / 2))  # x's reply holds b-h
    assert x_request < y_request < x_reply < y_reply
    assert arrivals == {"x": x_request, "y": y_request}
    assert ends == {"x": x_reply, "y": y_reply}
    assert net._link_active == {}


@pytest.mark.parametrize("deadline, share", [(0.5, 1), (None, 2)])
def test_a_deadline_mid_wire_frees_the_links_at_once(deadline, share):
    """A leg interrupted on the wire releases its links at the interrupt
    instant, so a leg started just after it gets the whole link; without
    the deadline the first leg still holds ``b-h`` and they share it."""
    sim, net, arrivals = star_world()
    ends = {}
    limit = {} if deadline is None else {"timeout": deadline}
    sim.process(leg_call(net, "x", "a", "b", 1_000_000, 1, 0.0, ends, **limit))
    sim.process(leg_call(net, "y", "c", "b", 200_000, 1, 0.6, ends))
    sim.run()
    if deadline is not None:
        assert ends["x"] == ("timeout", 0.5, {})
        assert "x" not in arrivals
    assert arrivals["y"] == 0.6 + (0.002 + 200_000 / (1e6 / share))
    assert net._link_active == {}


def reference_ends(topology, t0, calls):
    """Every leg's end under the formula, from the calls alone.

    A call's request leg starts at ``t0 + start``, its reply leg the
    instant the request ends.  A leg's time is ``latency + size /
    (bandwidth / (busiest + 1))``, ``busiest`` being the most legs on
    any link of its path at its start.  Returns ``{(index, leg): end}``
    (leg 1 the request, 2 the reply) and the instants events happened.
    """
    active = {}
    events = [(t0 + start, 0, index) for index, (start, *_) in enumerate(calls)]
    heapq.heapify(events)
    ends, instants, held = {}, [], {}
    while events:
        now, leg, index = heapq.heappop(events)
        instants.append(now)
        _, src, dst, request, reply = calls[index]
        if leg:
            for edge in held.pop((index, leg)):
                active[edge] -= 1
            ends[index, leg] = now
            if leg == 2:
                continue
        a, b, size = (src, dst, request) if leg == 0 else (dst, src, reply)
        latency, bandwidth = topology.path_metrics(a, b)
        edges = held[index, leg + 1] = topology.path_edges(a, b)
        busiest = max((active.get(edge, 0) for edge in edges), default=0)
        for edge in edges:
            active[edge] = active.get(edge, 0) + 1
        heapq.heappush(events, (now + (latency + size / (bandwidth / (busiest + 1))),
                                leg + 1, index))
    return ends, instants


FIG15_SITES = [f"agrid{index:02d}" for index in range(8)] + [ORIGIN]
schedules = st.lists(
    st.tuples(st.integers(0, 400).map(lambda k: k / 200),
              st.sampled_from(FIG15_SITES), st.sampled_from(FIG15_SITES),
              st.integers(1, 3_000_000), st.integers(1, 3_000_000)),
    min_size=1, max_size=10, unique_by=lambda call: call[0])


@settings(max_examples=60, deadline=None)
@given(schedules)
def test_generated_legs_on_a_fig15_vo_match_the_reference(calls):
    """A fig15-shaped VO (star around agrid00, origin two hops out),
    its loops stopped, runs a generated schedule of overlapping calls:
    every request and reply leg ends where the reference puts it, and
    no link is claimed once the network is quiet."""
    vo = build_vo(n_sites=8, seed=15, group_size=8, monitors=False,
                  lifecycle=False, contention=True)
    vo.network.stop()
    vo.sim.run()
    net, sim = vo.network, vo.sim
    assert not net.security.enabled
    net.marshal_cpu_per_kb = 0.0
    arrivals, ends = {}, {}
    for name in FIG15_SITES:
        Sink(net, name, arrivals)
    expected, instants = reference_ends(vo.topology, sim.now, calls)
    # two events at one instant run in an order the reference does not
    # model (a request's end and its reply's start are one event)
    assume(len(set(instants)) == len(instants))
    for index, (start, src, dst, request, reply) in enumerate(calls):
        sim.process(leg_call(net, index, src, dst, request, reply, start, ends))
    sim.run()
    observed = {(index, 1): at for index, at in arrivals.items()}
    observed.update({(index, 2): at for index, at in ends.items()})
    assert observed == expected
    assert net._link_active == {}
    assert audit(vo.network) == []
