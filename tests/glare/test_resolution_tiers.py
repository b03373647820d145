"""One resolver: the local hit is the walk's first tier, and every walk
is labelled by the tier it resolved at.

``RequestManager.get_deployments`` answers a hit from plain calls that
build deployment wires only; a miss enters the walk.  These tests hold
the two to one contract over fig-shaped VOs, with the cache, the scaled
plane and observability each on and off:

* a hit returns ``local_lookup(t)["deployments"]`` (less
  ``exclude_sites``) wire for wire, at the instant it was asked;
* ``requests`` and the tier counters move exactly as they did when
  every request entered the walk (pinned totals);
* each walk opens exactly one ``tier:local`` span under its
  ``glare:get_deployments`` span, and its ``tier`` label and the
  ``glare.resolutions`` series name the counter it bumped, however
  many walks overlap on the site.
"""

import itertools

import pytest

from repro.glare.errors import DeploymentNotFound, TypeNotFound
from repro.glare.registry import wire_site
from repro.glare.resolution import ResolutionConfig
from repro.obs.trace import span_children
from tests.glare.test_resolution_scale import make_vo, register_type_and_deployment

TIERS = ("local", "group", "super-peer", "on-demand")

#: name -> VOConfig overrides: fig12's single group, the paper testbed's
#: groups of three, fig14's groups of eight
SHAPES = {
    "fig12": dict(n_sites=4, group_size=5),
    "testbed": dict(n_sites=7, group_size=3),
    "fig14": dict(n_sites=16, group_size=8),
}

#: (shape, cache, scaled) -> (requests, local, group, super-peer,
#: on-demand, joined) after :func:`run_mix`; observability must not
#: move them.  The unscaled rows are as recorded when every request
#: entered the walk.  The scaled rows differ from that record only in
#: which tiers the followers bumped: a follower now bumps the tier its
#: leader's walk returned, not the counter a concurrent hit moved.
PINNED = {
    ("fig12", False, False): (24, 0, 20, 0, 0, 0),
    ("fig12", False, True): (24, 0, 20, 0, 0, 8),
    ("fig12", True, False): (24, 15, 5, 0, 0, 0),
    ("fig12", True, True): (24, 15, 5, 0, 0, 2),
    ("testbed", False, False): (24, 0, 16, 4, 0, 0),
    ("testbed", False, True): (24, 0, 16, 4, 0, 8),
    ("testbed", True, False): (24, 15, 3, 2, 0, 0),
    ("testbed", True, True): (24, 15, 3, 2, 0, 2),
    ("fig14", False, False): (24, 0, 16, 4, 0, 0),
    ("fig14", False, True): (24, 0, 16, 4, 0, 8),
    ("fig14", True, False): (24, 15, 3, 2, 0, 0),
    ("fig14", True, True): (24, 15, 3, 2, 0, 2),
}


def counters(manager):
    return (manager.requests, manager.resolved_locally, manager.resolved_in_group,
            manager.resolved_via_superpeer, manager.resolved_by_deployment,
            manager.singleflight_joined)


def build(shape, cache, scaled, observed):
    vo = make_vo(
        resolution=ResolutionConfig.all_on() if scaled else ResolutionConfig(),
        cache_enabled=cache, observability=observed, **SHAPES[shape])
    client = vo.site_names[1]
    view = vo.rdm(client).overlay.view
    peer = view.peers_of(client)[0]
    # another group's site, or (one group) the last member
    outside = [s for s in vo.site_names if s not in view.member_sites()]
    far = (outside or vo.site_names)[-1]
    placed = {"Here": client, "Peer": peer, "Far": far}
    for type_name, site in placed.items():
        register_type_and_deployment(vo, site, type_name)
    # "Both" is deployed at the client and at its peer
    register_type_and_deployment(vo, client, "Both")
    both = register_type_and_deployment(vo, peer, "Both")
    return vo, client, peer, both


def run_mix(vo, client, peer):
    """Two waves of overlapping requests at ``client``, staggered 1 ms.

    Each request asks its RDM directly, so what it was answered can be
    compared with ``local_lookup`` at its own instant.  Returns
    ``(outcomes, hits)``: per request ``(type, exclude, keys or error
    name)``, and per request the old rule called a hit ``(type, wires,
    expected wires, counter deltas, answered at the asking instant)``.
    """
    manager = vo.rdm(client).request_manager
    scaled = vo.rdm(client).resolution.scaled
    cache = vo.rdm(client).adr.cache_enabled
    asks = [("Here", ()), ("Peer", ()), ("Far", ()), ("Both", ()),
            ("Both", (client,)), ("Both", (peer,)), ("Here", (client,)),
            ("Far", ()), ("Peer", ()), ("Here", ()), ("Missing", ()), ("Both", ())]
    outcomes, hits = [], []

    def one(delay, type_name, exclude):
        yield vo.sim.timeout(delay)
        local = manager.local_lookup(type_name)["deployments"]
        expected = [w for w in local if wire_site(w) not in exclude]
        key = (type_name, False, tuple(sorted(exclude)))
        hit = cache and expected and not (scaled and key in manager._flights.in_flight)
        before, asked_at = counters(manager), vo.sim.now
        try:
            wires = yield from manager.get_deployments(
                type_name, auto_deploy=False, exclude_sites=exclude)
        except (DeploymentNotFound, TypeNotFound) as error:
            wires = type(error).__name__
        if hit:
            delta = [a - b for a, b in zip(counters(manager), before)]
            hits.append((type_name, wires, expected, delta, vo.sim.now == asked_at))
        outcomes.append((type_name, exclude, wires if isinstance(wires, str)
                         else sorted(w["epr"]["key"] for w in wires)))

    for wave in range(2):
        procs = [vo.sim.process(one(0.001 * i, type_name, exclude))
                 for i, (type_name, exclude) in enumerate(asks)]
        vo.sim.run(until=vo.sim.all_of(procs))
    return outcomes, hits


@pytest.mark.parametrize(
    "shape, cache, scaled, observed",
    list(itertools.product(SHAPES, (False, True), (False, True), (False, True))))
def test_one_resolver(shape, cache, scaled, observed):
    vo, client, peer, both = build(shape, cache, scaled, observed)
    manager = vo.rdm(client).request_manager
    start = counters(manager)
    outcomes, hits = run_mix(vo, client, peer)
    for type_name, wires, expected, delta, same_instant in hits:
        assert same_instant, f"{type_name} hit took simulated time"
        assert len(wires) == len(expected)
        for got, want in zip(wires, expected):
            assert got == want and got["xml"] is want["xml"]
        assert delta == [1, 1, 0, 0, 0, 0]
    assert (len(hits) > 0) == cache
    moved = tuple(a - b for a, b in zip(counters(manager), start))
    assert moved == PINNED[shape, cache, scaled]
    # every answered request bumps one tier, a failed one none
    requests, *tiers, joined = moved
    assert sum(tiers) == requests - sum(isinstance(o[2], str) for o in outcomes)
    assert ("Both", (client,), [both.key]) in outcomes
    if not observed:
        return
    tracer = vo.obs.tracer
    children = span_children(tracer.spans)
    walks = [s for s in tracer.spans if s.name == "glare:get_deployments"
             and s.attrs["site"] == client]
    assert len(walks) == requests
    for walk in walks:
        locals_ = [c for c in children.get(walk.span_id, []) if c.name == "tier:local"]
        # a follower joins a walk in flight and takes no tier of its own
        assert len(locals_) <= 1
        assert locals_ or scaled
    followers = sum(1 for w in walks if not any(
        c.name == "tier:local" for c in children.get(w.span_id, [])))
    assert followers <= joined
    # labels (failed walks carry none) tally exactly with the counters
    labels = [w.attrs.get("tier") for w in walks if "tier" in w.attrs]
    assert [labels.count(t) for t in TIERS] == list(tiers)
    metrics = vo.obs.metrics
    assert [metrics.counter("glare.resolutions", tier=t).value for t in TIERS] == list(tiers)


def test_overlapping_hit_does_not_relabel_a_walk():
    """A walk for a type deployed in another group resolves via the
    super-peer while a local hit lands mid-walk: the walk is labelled
    ``super-peer`` (it read ``local`` when labels were counter diffs)."""
    vo = make_vo(observability=True, cache_enabled=True)
    register_type_and_deployment(vo, "agrid02", "Far")
    register_type_and_deployment(vo, "agrid01", "Near")
    assert "agrid02" not in vo.rdm("agrid01").overlay.view.member_sites()
    manager = vo.rdm("agrid01").request_manager
    before = counters(manager)
    done = {}

    def ask(type_name, delay):
        yield vo.sim.timeout(delay)
        started = vo.sim.now
        yield from vo.client_call("agrid01", "get_deployments",
                                  payload={"type": type_name, "auto_deploy": False})
        done[type_name] = vo.sim.now - started

    procs = [vo.sim.process(ask("Far", 0.0)), vo.sim.process(ask("Near", 0.003))]
    vo.sim.run(until=vo.sim.all_of(procs))
    assert done["Near"] < done["Far"]  # the hit lands inside the walk
    moved = [a - b for a, b in zip(counters(manager), before)]
    assert moved == [2, 1, 0, 1, 0, 0]
    walks = {s.attrs["type"]: s for s in vo.obs.tracer.spans
             if s.name == "glare:get_deployments" and s.attrs["site"] == "agrid01"}
    assert walks["Far"].attrs["tier"] == "super-peer"
    assert walks["Near"].attrs["tier"] == "local"
    metrics = vo.obs.metrics
    assert metrics.counter("glare.resolutions", tier="super-peer").value == 1


@pytest.mark.parametrize("type_name, tier", [("Near", "local"), ("Far", "super-peer")])
def test_one_local_tier_span_per_walk(type_name, tier):
    """Exactly one ``tier:local`` span under ``glare:get_deployments``,
    for a hit and for a miss (a miss must not open a second one)."""
    vo = make_vo(observability=True, cache_enabled=True)
    register_type_and_deployment(vo, "agrid02", "Far")
    register_type_and_deployment(vo, "agrid01", "Near")
    tracer = vo.obs.tracer
    tracer.clear()
    vo.run_process(vo.client_call("agrid01", "get_deployments",
                                  payload={"type": type_name, "auto_deploy": False}))
    spans = tracer.spans
    walk, = [s for s in spans if s.name == "glare:get_deployments"
             and s.attrs["site"] == "agrid01"]
    assert walk.attrs["tier"] == tier
    tiers = [s for s in spans if s.parent_id == walk.span_id]
    # the walk's first tier, and its only local one
    assert tiers[0].name == "tier:local" and tiers[0].attrs["type"] == type_name
    assert [s.name for s in tiers].count("tier:local") == 1
