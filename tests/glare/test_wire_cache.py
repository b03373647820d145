"""Tests for the cached wire forms on activity types and deployments.

``wire_xml()``/``wire_size()`` memoize the serialized XML so the hot
lookup path stops re-serializing per request; the cache must stay
byte-identical to a fresh ``to_xml().to_string()`` and must be dropped
whenever a serialized field mutates (the status-monitor update path).
The receive side mirrors it: each distinct wire document is parsed once
(``wsrf.xmldoc.parse_shared``), every decode still builds a fresh object
— except a deploy-file, whose compiled plan is immutable and shared.
"""

import collections
import copy
import dataclasses

import pytest

from repro.glare.deployfile import parse_deployfile
from repro.glare.errors import InvalidTypeDescription
from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
    TypeKind,
)
from repro.wsrf import xmldoc
from repro.wsrf.xmldoc import XmlParseError, parse_shared, parse_xml


def _deployment(**overrides):
    fields = dict(
        name="povray-1",
        type_name="JPOVray",
        kind=DeploymentKind.EXECUTABLE,
        site="hafner",
        path="/opt/povray/bin/povray",
        home="/opt/povray",
        status=DeploymentStatus.ACTIVE,
    )
    fields.update(overrides)
    return ActivityDeployment(**fields)


class TestWireCache:
    def test_wire_xml_matches_fresh_serialization(self):
        at = ActivityType(name="POVray", kind=TypeKind.CONCRETE,
                          domain="imaging", description="ray tracer",
                          deployment_names=["povray"])
        assert at.wire_xml() == at.to_xml().to_string()
        dep = _deployment()
        assert dep.wire_xml() == dep.to_xml().to_string()

    def test_wire_size_is_len_of_wire_xml(self):
        dep = _deployment()
        assert dep.wire_size() == len(dep.wire_xml())

    def test_cache_hit_returns_same_object(self):
        dep = _deployment()
        assert dep.wire_xml() is dep.wire_xml()

    def test_invalidate_drops_cache(self):
        dep = _deployment()
        stale = dep.wire_xml()
        dep.status = DeploymentStatus.FAILED
        # mutation without invalidation leaves the stale bytes (the
        # documented contract: mutators must call invalidate_wire_cache)
        assert dep.wire_xml() is stale
        dep.invalidate_wire_cache()
        fresh = dep.wire_xml()
        assert fresh != stale
        assert 'status="failed"' in fresh
        assert fresh == dep.to_xml().to_string()

    def test_invalidate_without_cache_is_noop(self):
        dep = _deployment()
        dep.invalidate_wire_cache()  # nothing cached yet; must not raise
        assert dep.wire_xml() == dep.to_xml().to_string()

    def test_update_status_op_refreshes_wire_form(self):
        # End-to-end through the registry op that mutates deployments —
        # the only post-registration mutation site of a wire-cached object.
        from repro.glare.registry import (
            ActivityDeploymentRegistry,
            ActivityTypeRegistry,
            ADR_SERVICE,
            ATR_SERVICE,
        )
        from repro.net.network import Network
        from repro.net.topology import Topology
        from repro.simkernel import Simulator

        sim = Simulator(seed=41)
        topo = Topology.full_mesh(["s0", "s1"], latency=0.003, bandwidth=1e7)
        net = Network(sim, topo)
        net.add_node("s0", cores=2)
        net.add_node("s1", cores=2)
        atr = ActivityTypeRegistry(net, "s0")
        adr = ActivityDeploymentRegistry(net, "s0", atr=atr)

        def call(service, method, payload):
            def client():
                return (yield from net.call("s1", "s0", service, method,
                                            payload=payload))

            proc = sim.process(client())
            sim.run(until=proc)
            return proc.value

        type_xml = ActivityType(
            name="JPOVray", kind=TypeKind.CONCRETE, domain="imaging"
        ).to_xml().to_string()
        call(ATR_SERVICE, "register_type", {"xml": type_xml})
        dep = _deployment(site="s0")
        call(ADR_SERVICE, "register_deployment",
             {"xml": dep.to_xml().to_string()})

        stored = adr.deployments["s0:povray-1"]
        before = stored.wire_xml()
        assert 'status="active"' in before
        call(ADR_SERVICE, "update_status",
             {"key": stored.key, "status": "failed"})
        after = stored.wire_xml()
        assert after != before
        assert 'status="failed"' in after
        assert after == stored.to_xml().to_string()


# -- the receive side: each distinct wire document is decoded once ----------

@pytest.fixture
def parses(monkeypatch):
    """An empty memo, and ``parse_xml`` calls counted per document."""
    counts = collections.Counter()
    real = xmldoc.parse_xml

    def counting(text):
        counts[text] += 1
        return real(text)

    monkeypatch.setattr(xmldoc, "parse_xml", counting)
    xmldoc._SHARED.clear()
    yield counts
    xmldoc._SHARED.clear()


class TestSharedDecode:
    def test_repeat_decodes_parse_once_and_build_fresh_objects(self, parses):
        xml = ActivityType(name="POVray", kind=TypeKind.CONCRETE,
                           base_types=["Imaging"]).to_xml().to_string()
        first, second = ActivityType.from_xml(xml), ActivityType.from_xml(xml)
        received = ActivityType.from_wire_xml(xml)
        assert parses[xml] == 1
        assert first == second == received == ActivityType.from_xml(parse_xml(xml))
        assert first is not second and first.base_types is not second.base_types
        # a document somebody wrote decodes to a plain object; one a
        # registry sent keeps the wire form it arrived as, so its first
        # cache hit serialises nothing
        assert "_wire_form" not in first.__dict__
        assert received.__dict__["_wire_form"] == received.to_xml().to_string() == xml

    def test_wire_form_is_computed_not_assumed(self, parses):
        # parsing strips text: a padded field re-serialises shorter
        padded = ('<ActivityTypeEntry name="T" kind="abstract">\n'
                  "  <Domain>  imaging </Domain>\n</ActivityTypeEntry>")
        decoded = ActivityType.from_wire_xml(padded)
        assert decoded.wire_xml() == decoded.to_xml().to_string() != padded
        assert ActivityType.from_wire_xml(padded).wire_xml() is decoded.wire_xml()

    def test_deployfile_plan_is_shared_because_immutable(
            self, parses, compiled_recipes):
        text = ('<Build name="b" baseDir="/opt/b"><Step name="get" '
                'task="mkdir-p"><Env name="A" value="1"/></Step></Build>')
        one, two = parse_deployfile(text), parse_deployfile(text)
        assert one is two
        assert parses[text] == 1 and compiled_recipes == ["b"]
        step = one.steps[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.task = "rm -rf"
        with pytest.raises(TypeError):
            step.env["A"] = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.steps = ()
        with pytest.raises(TypeError):
            one.collected_env()["A"] = "changed"
        assert isinstance(one.steps, tuple) and isinstance(step.properties, tuple)
        # an Element compiles privately: equal, not the shared object
        private = parse_deployfile(parse_xml(text))
        assert private == one and private is not one
        assert compiled_recipes == ["b", "b"]

    def test_invalid_deployfile_raises_every_time_and_leaves_no_plan(self, parses):
        cyclic = ('<Build name="loop"><Step name="a" depends="b" task="x"/>'
                  '<Step name="b" depends="a" task="y"/></Build>')
        for _ in range(2):
            with pytest.raises(InvalidTypeDescription, match="dependency cycle"):
                parse_deployfile(cyclic)
        assert xmldoc._SHARED[cyclic].compiled is None

    def test_malformed_document_raises_identically_and_is_not_stored(self, parses):
        broken = '<ActivityTypeEntry name="T">\n  <Domain>x</Domian>'
        errors = []
        for _ in range(2):
            with pytest.raises(XmlParseError) as caught:
                ActivityType.from_xml(broken)
            errors.append((str(caught.value), caught.value.pos,
                           caught.value.line, caught.value.column))
        assert errors[0] == errors[1]
        assert parses[broken] == 2
        assert xmldoc._SHARED == {}

    def test_crossing_the_bound_clears_and_refills(self, parses, monkeypatch):
        monkeypatch.setattr(xmldoc, "_SHARED_LIMIT", 4)
        docs = [f'<D n="{i}"/>' for i in range(5)]
        trees = [parse_shared(doc) for doc in docs[:4]]
        assert list(xmldoc._SHARED) == docs[:4]
        assert parse_shared(docs[0]) is trees[0]
        parse_shared(docs[4])  # the fifth finds the memo full
        assert list(xmldoc._SHARED) == docs[4:]
        again = parse_shared(docs[0])
        assert again is not trees[0] and again.equals(trees[0])
        assert parses[docs[0]] == 2 and len(xmldoc._SHARED) == 2

    def test_three_sites_caching_one_remote_deployment_parse_it_once(self, parses):
        from repro.glare.registry import (
            ActivityDeploymentRegistry,
            ActivityTypeRegistry,
            ADR_SERVICE,
            ATR_SERVICE,
        )
        from repro.net.network import Network
        from repro.net.topology import Topology
        from repro.simkernel import Simulator

        sites = ["home", "s1", "s2", "s3"]
        sim = Simulator(seed=41)
        net = Network(sim, Topology.full_mesh(sites, latency=0.003, bandwidth=1e7))
        adrs = {}
        for site in sites:
            net.add_node(site, cores=2)
            adrs[site] = ActivityDeploymentRegistry(
                net, site, atr=ActivityTypeRegistry(net, site))

        def call(src, service, method, payload):
            def client():
                return (yield from net.call(src, "home", service, method,
                                            payload=payload))

            proc = sim.process(client())
            sim.run(until=proc)
            return proc.value

        call("s1", ATR_SERVICE, "register_type", {"xml": ActivityType(
            name="JPOVray", kind=TypeKind.CONCRETE).to_xml().to_string()})
        call("s1", ADR_SERVICE, "register_deployment",
             {"xml": _deployment(site="home").to_xml().to_string()})
        key = "home:povray-1"

        def fetch_everywhere():
            wires = [call(site, ADR_SERVICE, "get_deployment", key)
                     for site in sites[1:]]
            for site, wire in zip(sites[1:], wires):
                adrs[site].cache_wire(wire)
            assert len({wire["xml"] for wire in wires}) == 1
            return wires[0]["xml"]

        active = fetch_everywhere()
        # registration, three receivers, three cache entries: one parse
        # and one decoded object, shared read-only like the tree
        assert parses[active] == 1
        copies = [adrs[site].cached_deployments[key] for site in sites[1:]]
        assert len({id(copy) for copy in copies}) == 1
        assert len({id(adrs[site].cache.lookup(key).properties)
                    for site in sites[1:]}) == 1  # the shared tree

        call("s1", ADR_SERVICE, "update_status", {"key": key, "status": "failed"})
        # the home copy changed; what the other sites hold stays as stale
        # as before until they revalidate
        assert adrs["home"].deployments[key].status is DeploymentStatus.FAILED
        assert all(copy.status is DeploymentStatus.ACTIVE and
                   copy.wire_xml() == active for copy in copies)
        failed = fetch_everywhere()
        assert failed != active and 'status="failed"' in failed
        assert parses[failed] == 1 and parses[active] == 1
        assert all(adrs[site].cached_deployments[key].status
                   is DeploymentStatus.FAILED for site in sites[1:])


# -- a cache entry holds the document's one decoded, read-only item ---------

def _registries(*sites):
    """A simulator and one ATR/ADR pair per site on a full mesh."""
    from repro.glare.registry import ActivityDeploymentRegistry, ActivityTypeRegistry
    from repro.net.network import Network
    from repro.net.topology import Topology
    from repro.simkernel import Simulator

    sim = Simulator(seed=41)
    net = Network(sim, Topology.full_mesh(list(sites), latency=0.003, bandwidth=1e7))
    pairs = {}
    for site in sites:
        net.add_node(site, cores=2)
        atr = ActivityTypeRegistry(net, site)
        pairs[site] = (atr, ActivityDeploymentRegistry(net, site, atr=atr))
    return sim, net, pairs


def _cached_items(vo):
    """Every cached type and deployment of every site, one entry per
    object, with the number of sites holding it."""
    items, holders = {}, collections.Counter()
    for stack in vo.stacks.values():
        held = [stack.atr.hierarchy.get(name) for name in stack.atr.cache.keys()
                if stack.atr.home.lookup(name) is None]
        held += list(stack.adr.cached_deployments.values())
        for item in held:
            items[id(item)] = item
            holders[id(item)] += 1
    return items, holders


def _assert_as_decoded(items):
    """Each item is exactly what its document decodes to: no receiver
    wrote to it."""
    for item in items.values():
        assert vars(item) == vars(type(item).from_wire_xml(item.wire_xml()))


class TestSharedCacheEntries:
    def test_two_sites_caching_one_wire_hold_one_object(self, parses):
        from repro.glare.registry import deployment_to_wire, type_to_wire

        _, _, pairs = _registries("home", "a", "b")
        home_atr, home_adr = pairs["home"]
        at = ActivityType(name="JPOVray", kind=TypeKind.CONCRETE, base_types=["POVray"])
        home_atr.add_local_type(at)
        dep = _deployment(site="home")
        home_adr.add_local_deployment(dep)
        type_wire = type_to_wire(at, home_atr.home.lookup("JPOVray").epr)
        dep_wire = deployment_to_wire(dep, home_adr.home.lookup(dep.key).epr)
        for site in ("a", "b"):
            atr, adr = pairs[site]
            atr.cache_wire(type_wire)
            adr.cache_wire(dep_wire)
        (atr_a, adr_a), (atr_b, adr_b) = pairs["a"], pairs["b"]
        assert atr_a.hierarchy.get("JPOVray") is atr_b.hierarchy.get("JPOVray")
        assert adr_a.cached_deployments[dep.key] is adr_b.cached_deployments[dep.key]
        # ... and not the sender's own objects, which its site may change
        assert atr_a.hierarchy.get("JPOVray") is not at
        assert adr_a.cached_deployments[dep.key] is not dep
        assert parses[type_wire["xml"]] == parses[dep_wire["xml"]] == 1

    def test_a_local_registration_of_the_same_xml_holds_its_own_object(self):
        from repro.glare.registry import ADR_SERVICE, ATR_SERVICE

        sim, net, pairs = _registries("home", "a", "b")

        def call(dst, service, method, payload):
            def client():
                return (yield from net.call("client", dst, service, method,
                                            payload=payload))

            proc = sim.process(client())
            sim.run(until=proc)
            return proc.value

        net.add_node("client", cores=1)
        for site in pairs:
            net.topology.add_link("client", site, 0.003, 1e7)
        type_xml = ActivityType(name="JPOVray", kind=TypeKind.CONCRETE,
                                provider="client").to_xml().to_string()
        dep_xml = _deployment(site="home").to_xml().to_string()
        call("home", ATR_SERVICE, "register_type", {"xml": type_xml})
        call("home", ADR_SERVICE, "register_deployment", {"xml": dep_xml})
        type_wire = call("home", ATR_SERVICE, "lookup_type", "JPOVray")
        dep_wire = call("home", ADR_SERVICE, "get_deployment", "home:povray-1")
        assert (type_wire["xml"], dep_wire["xml"]) == (type_xml, dep_xml)
        for site in ("a", "b"):
            pairs[site][0].cache_wire(type_wire)
            pairs[site][1].cache_wire(dep_wire)
        # the same type XML registered at b after b cached it
        call("b", ATR_SERVICE, "register_type", {"xml": type_xml})
        shared_type = pairs["a"][0].hierarchy.get("JPOVray")
        shared_dep = pairs["a"][1].cached_deployments["home:povray-1"]
        local_type = pairs["b"][0].hierarchy.get("JPOVray")
        assert local_type is not shared_type and local_type == dataclasses.replace(
            shared_type, registered_at=local_type.registered_at)
        assert pairs["home"][0].hierarchy.get("JPOVray") is not shared_type
        home_dep = pairs["home"][1].deployments["home:povray-1"]
        assert home_dep is not shared_dep
        # the registrations stamped their own copies only
        assert 0.0 < home_dep.registered_at == home_dep.last_update_time
        assert local_type.registered_at > 0.0
        assert shared_type.registered_at == 0.0
        assert shared_dep.registered_at == shared_dep.last_update_time == 0.0

    def test_a_slot_another_decoder_filled_is_not_taken(self, parses):
        from repro.glare.registry import deployment_to_wire

        _, _, pairs = _registries("home", "a")
        dep = _deployment(site="home")
        wire = deployment_to_wire(dep, pairs["home"][1]._epr_for(dep.key))
        foreign = ActivityType(name="Other")
        xmldoc.shared_document(wire["xml"]).compiled = foreign
        pairs["a"][1].cache_wire(wire)
        cached = pairs["a"][1].cached_deployments[dep.key]
        assert type(cached) is ActivityDeployment and cached == dep
        assert xmldoc.shared_document(wire["xml"]).compiled is cached

    def test_caching_writes_to_no_shared_item_through_a_rollout_and_a_crash_run(self):
        from repro.apps import get_application, publish_applications
        from repro.experiments.workload import register_served_type
        from repro.glare.provisioning import ProvisioningConfig
        from repro.vo import build_vo

        # fig15's shape: a contended rollout on a 16-site VO, to a few
        # sites, then every site looks the deployments up and the
        # others cache the answers
        vo = build_vo(n_sites=16, seed=29, group_size=8, monitors=False,
                      lifecycle=False, contention=True,
                      provisioning=ProvisioningConfig.all_on(rollout_fanout=8))
        publish_applications(vo, ["Wien2k"])
        vo.form_overlay()
        spec, initiator = get_application("Wien2k"), vo.community_site
        vo.run_process(vo.client_call(initiator, "register_type",
                                      payload={"xml": spec.type_xml}))

        def rollout_and_look_up():
            vo.run_process(vo.client_call(initiator, "rollout", payload={
                "type_xml": spec.type_xml, "target_sites": vo.site_names[5:11]}))
            for site in vo.site_names:
                vo.run_process(vo.client_call(
                    site, "get_deployments",
                    payload={"type": "Wien2k", "auto_deploy": False}))

        rollout_and_look_up()
        items, holders = _cached_items(vo)
        assert max(holders.values()) >= 8  # the answers really are shared
        _assert_as_decoded(items)
        before = {key: copy.deepcopy(vars(item)) for key, item in items.items()}
        rollout_and_look_up()  # every leg "present": the same documents again
        assert {key: vars(item) for key, item in items.items()} == before

        # fig16's churn: served types, a refresher revalidating the
        # caches, a status change at the home and a crashed super-peer
        vo = build_vo(n_sites=9, seed=10, group_size=3, monitors=True,
                      lifecycle=False)
        vo.form_overlay()
        homes = ("agrid05", "agrid07")  # in the groups agrid01 and agrid08 lead
        for index, home in enumerate(homes):
            register_served_type(vo, home, f"ChurnType{index:02d}", "churn")

        def resolve_everywhere():
            for site in vo.site_names:
                for index in range(len(homes)):
                    vo.run_process(vo.client_call(
                        site, "get_deployments",
                        payload={"type": f"ChurnType{index:02d}",
                                 "auto_deploy": False}))

        resolve_everywhere()
        items, holders = _cached_items(vo)
        assert max(holders.values()) >= 4
        _assert_as_decoded(items)
        before = {key: copy.deepcopy(vars(item)) for key, item in items.items()}
        victim = vo.rdm("agrid05").overlay.view.super_peer
        vo.sim.process(vo.faults.outage(victim, 45.0))
        vo.run_process(vo.client_call(
            "agrid07", "update_status",
            payload={"key": "agrid07:churntype01-bin", "status": "failed"},
            service="activity-deployment-registry"))
        vo.sim.run(until=vo.sim.now + 120.0)
        resolve_everywhere()
        assert {key: vars(item) for key, item in items.items()} == before
        _assert_as_decoded(_cached_items(vo)[0])
