"""Unit tests for the Activity Type and Deployment registries."""

import pytest

from repro.glare.errors import GlareError, TypeMissingForDeployment, TypeNotFound
from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
    TypeKind,
)
from repro.glare.registry import (
    ActivityDeploymentRegistry,
    ActivityTypeRegistry,
    ADR_SERVICE,
    ATR_SERVICE,
)
from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator
from repro.wsrf.resource import EndpointReference

TYPE_XML = (
    '<ActivityTypeEntry name="App" kind="concrete">'
    "<Domain>demo</Domain><BaseType>Root</BaseType></ActivityTypeEntry>"
)
LIMITED_TYPE_XML = (
    '<ActivityTypeEntry name="Limited" kind="concrete">'
    '<Domain>demo</Domain><DeploymentLimits max="1"/></ActivityTypeEntry>'
)


def deployment_xml(name="app", type_name="App", site="s0"):
    d = ActivityDeployment(
        name=name, type_name=type_name, kind=DeploymentKind.EXECUTABLE,
        site=site, path=f"/opt/{name}/bin/{name}",
        status=DeploymentStatus.ACTIVE,
    )
    return d.to_xml().to_string()


@pytest.fixture()
def world():
    sim = Simulator(seed=41)
    topo = Topology.full_mesh(["s0", "s1"], latency=0.003, bandwidth=1e7)
    net = Network(sim, topo)
    net.add_node("s0", cores=2)
    net.add_node("s1", cores=2)
    atr = ActivityTypeRegistry(net, "s0")
    adr = ActivityDeploymentRegistry(net, "s0", atr=atr)
    return sim, net, atr, adr


def call(sim, net, service, method, payload, src="s1"):
    def client():
        value = yield from net.call(src, "s0", service, method, payload=payload)
        return value

    proc = sim.process(client())
    sim.run(until=proc)
    return proc.value


class TestTypeRegistry:
    def test_register_and_lookup(self, world):
        sim, net, atr, adr = world
        out = call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        assert out["registered"] == "App"
        wire = call(sim, net, ATR_SERVICE, "lookup_type", "App")
        assert wire is not None
        parsed = ActivityType.from_xml(wire["xml"])
        assert parsed.name == "App"
        assert parsed.provider == "s1"  # defaulted to the registering site

    def test_lookup_missing_returns_none(self, world):
        sim, net, atr, adr = world
        assert call(sim, net, ATR_SERVICE, "lookup_type", "Ghost") is None

    def test_xpath_query_over_aggregation(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        hits = call(sim, net, ATR_SERVICE, "query",
                    "//ActivityTypeEntry[@name='App']")
        assert len(hits) == 1

    def test_remove_type(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        out = call(sim, net, ATR_SERVICE, "remove_type", "App")
        assert out["removed"] is True
        assert call(sim, net, ATR_SERVICE, "lookup_type", "App") is None
        assert call(sim, net, ATR_SERVICE, "query",
                    "//ActivityTypeEntry[@name='App']") == []

    def test_get_lut_tracks_registration(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        lut = call(sim, net, ATR_SERVICE, "get_lut", "App")
        assert lut is not None and lut > 0
        assert call(sim, net, ATR_SERVICE, "get_lut", "Ghost") is None

    def test_set_termination(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        out = call(sim, net, ATR_SERVICE, "set_termination",
                   {"name": "App", "at": 500.0})
        assert out["terminates_at"] == 500.0
        resource = atr.home.lookup("App")
        assert resource.termination_time == 500.0

    def test_cached_type_separate_from_local(self, world):
        sim, net, atr, adr = world
        remote = ActivityType.from_xml(TYPE_XML)
        source = EndpointReference("s1/atr", ATR_SERVICE, "App",
                                   last_update_time=1.0)
        atr.add_cached(remote, source)
        assert atr.find_type("App") is not None
        assert atr.local_type_names() == []
        assert atr.authoritative_epr("App").site == "s1"
        atr.drop_cached("App")
        assert atr.find_type("App") is None

    def test_cache_disabled_registry_does_not_cache(self, world):
        sim, net, atr, adr = world
        atr.cache_enabled = False
        remote = ActivityType.from_xml(TYPE_XML)
        source = EndpointReference("s1/atr", ATR_SERVICE, "App")
        assert atr.add_cached(remote, source) is None
        assert atr.find_type("App") is None

    def test_list_types(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        out = call(sim, net, ATR_SERVICE, "list_types", None)
        assert out["local"] == ["App"]
        assert out["cached"] == []


class TestDeploymentRegistry:
    def test_register_requires_type(self, world):
        sim, net, atr, adr = world
        with pytest.raises(TypeMissingForDeployment):
            call(sim, net, ADR_SERVICE, "register_deployment",
                 {"xml": deployment_xml()})

    def test_dynamic_type_registration(self, world):
        """Paper §3.1: unknown type + type_xml => ATR registers it."""
        sim, net, atr, adr = world
        out = call(sim, net, ADR_SERVICE, "register_deployment",
                   {"xml": deployment_xml(), "type_xml": TYPE_XML})
        assert out["registered"] == "s0:app"
        assert atr.find_type("App") is not None  # dynamically registered

    def test_lookup_deployments(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        call(sim, net, ADR_SERVICE, "register_deployment",
             {"xml": deployment_xml("app1")})
        call(sim, net, ADR_SERVICE, "register_deployment",
             {"xml": deployment_xml("app2")})
        wires = call(sim, net, ADR_SERVICE, "lookup_deployments", "App")
        names = {ActivityDeployment.from_xml(w["xml"]).name for w in wires}
        assert names == {"app1", "app2"}

    def test_max_deployments_enforced(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": LIMITED_TYPE_XML})
        call(sim, net, ADR_SERVICE, "register_deployment",
             {"xml": deployment_xml("one", type_name="Limited")})
        with pytest.raises(GlareError, match="at most 1"):
            call(sim, net, ADR_SERVICE, "register_deployment",
                 {"xml": deployment_xml("two", type_name="Limited")})

    def test_update_status_refreshes_lut(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        call(sim, net, ADR_SERVICE, "register_deployment",
             {"xml": deployment_xml()})
        lut_before = adr.home.lookup("s0:app").last_update_time
        sim.run(until=sim.now + 10)
        out = call(sim, net, ADR_SERVICE, "update_status",
                   {"key": "s0:app", "status": "failed",
                    "last_return_code": 1})
        assert out["lut"] > lut_before
        assert adr.deployments["s0:app"].status == DeploymentStatus.FAILED
        assert adr.deployments["s0:app"].last_return_code == 1
        # the aggregated resource document reflects the new status
        hits = call(sim, net, ADR_SERVICE, "query",
                    "//ActivityDeployment[@status='failed']")
        assert len(hits) == 1

    def test_update_status_republishes_one_entry(self, world):
        """The status report re-pulls its own aggregation entry, no other."""
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        for name in ("app1", "app2", "app3"):
            call(sim, net, ADR_SERVICE, "register_deployment",
                 {"xml": deployment_xml(name)})
        query = ("//ActivityDeployment[@name='app2'][@site='s0']"
                 "/Metrics/LastReturnCode/text()")
        assert call(sim, net, ADR_SERVICE, "query", query) == []  # index built
        pulled = []
        for entry in adr.aggregation.entries():
            def provider(inner=entry.provider, key=entry.epr.key):
                pulled.append(key)
                return inner()
            entry.provider = provider
        call(sim, net, ADR_SERVICE, "update_status",
             {"key": "s0:app2", "last_return_code": 7})
        assert pulled == ["s0:app2"]
        assert adr.aggregation.refreshes == 0
        assert call(sim, net, ADR_SERVICE, "query", query) == [{"value": "7"}]
        call(sim, net, ADR_SERVICE, "update_status",
             {"key": "s0:app2", "last_return_code": 0})
        assert call(sim, net, ADR_SERVICE, "query", query) == [{"value": "0"}]
        assert pulled == ["s0:app2", "s0:app2"]

    def test_remove_deployment(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        call(sim, net, ADR_SERVICE, "register_deployment",
             {"xml": deployment_xml()})
        out = call(sim, net, ADR_SERVICE, "remove_deployment", "s0:app")
        assert out["removed"] is True
        assert call(sim, net, ADR_SERVICE, "lookup_deployments", "App") == []

    def test_get_deployment_by_key(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        call(sim, net, ADR_SERVICE, "register_deployment",
             {"xml": deployment_xml()})
        wire = call(sim, net, ADR_SERVICE, "get_deployment", "s0:app")
        assert ActivityDeployment.from_xml(wire["xml"]).name == "app"
        assert call(sim, net, ADR_SERVICE, "get_deployment", "nope") is None

    def test_cached_deployment_bookkeeping(self, world):
        sim, net, atr, adr = world
        call(sim, net, ATR_SERVICE, "register_type", {"xml": TYPE_XML})
        remote = ActivityDeployment.from_xml(deployment_xml("rapp", site="s1"))
        source = EndpointReference("s1/adr", ADR_SERVICE, remote.key)
        adr.add_cached(remote, source)
        assert remote.key in adr.cached_deployments
        assert [d.name for d in adr.all_deployments_for("App")] == ["rapp"]
        assert adr.local_deployments_for("App") == []
        adr.drop_cached(remote.key)
        assert adr.all_deployments_for("App") == []


class TestLookupCosts:
    def test_named_lookup_flat_in_registry_size(self, world):
        """The hash-table property: lookup time independent of size."""
        sim, net, atr, adr = world
        for index in range(200):
            at = ActivityType(name=f"T{index}", kind=TypeKind.CONCRETE,
                              installation=None)
            # concrete without installation is fine for lookup purposes
            object.__setattr__ if False else None
            atr.add_local_type(at)
        t0 = sim.now
        call(sim, net, ATR_SERVICE, "lookup_type", "T0")
        small_duration = sim.now - t0
        t0 = sim.now
        call(sim, net, ATR_SERVICE, "lookup_type", "T199")
        large_duration = sim.now - t0
        assert abs(small_duration - large_duration) < 0.002
