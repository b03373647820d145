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
        assert parses[active] == 1
        copies = [adrs[site].cached_deployments[key] for site in sites[1:]]
        assert len({id(copy) for copy in copies}) == 3
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
