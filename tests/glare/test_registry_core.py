"""The registry core both the ATR and the ADR are built on.

Every test runs against both registries: what ``_Registry`` owns
(``home`` / ``cache`` / ``cache_sources`` / the service group, publish,
unpublish, ``cache_wire``, ``drop_cached``, ``get_lut`` /
``get_lut_batch`` / ``query``) must behave the same under either
personality, and no removal may leave the key behind in any index —
the shared ones or the personality's own.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

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
    deployment_to_wire,
    type_to_wire,
)
from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator
from repro.wsrf.resource import EndpointReference


def make_type(index, site):
    return ActivityType(name=f"T{index}", kind=TypeKind.CONCRETE, domain="demo")


def make_deployment(index, site):
    return ActivityDeployment(
        name=f"d{index}", type_name="App", kind=DeploymentKind.EXECUTABLE,
        site=site, path=f"/opt/d{index}/bin/d{index}",
        status=DeploymentStatus.ACTIVE,
    )


@dataclass
class Core:
    sim: Simulator
    net: Network
    registry: object
    make: Callable  # (index, site) -> item
    add_local: Callable  # item -> WSResource
    to_wire: Callable  # (item, epr) -> wire
    tag: str  # root tag of the resource documents

    def call(self, method, payload):
        def client():
            value = yield from self.net.call(
                "s1", "s0", self.registry.name, method, payload=payload)
            return value

        proc = self.sim.process(client())
        self.sim.run(until=proc)
        return proc.value

    def remote_wire(self, index):
        """What site s1's registry would send for its own item."""
        item = self.make(index, "s1")
        epr = EndpointReference(f"s1/{self.registry.name}", self.registry.name,
                                item.key, last_update_time=7.0)
        return item, epr, self.to_wire(item, epr)

    def holders(self, key):
        """Every index of the registry that still knows ``key``."""
        r = self.registry
        held = {
            "home": r.home.lookup(key) is not None,
            "cache": r.cache.lookup(key) is not None,
            "cache_sources": key in r.cache_sources,
            "service group": r.aggregation.find_by_key(key) is not None,
        }
        if isinstance(r, ActivityTypeRegistry):
            held["hierarchy"] = r.hierarchy.get(key) is not None
        else:
            held["deployments"] = key in r.deployments
            held["cached_deployments"] = key in r.cached_deployments
            held["by_type"] = any(key in keys for keys in r.by_type.values())
        return sorted(name for name, holds in held.items() if holds)


@pytest.fixture(params=["atr", "adr"])
def core(request):
    sim = Simulator(seed=41)
    net = Network(sim, Topology.full_mesh(["s0", "s1"], latency=0.003,
                                          bandwidth=1e7))
    net.add_node("s0", cores=2)
    net.add_node("s1", cores=2)
    atr = ActivityTypeRegistry(net, "s0")
    adr = ActivityDeploymentRegistry(net, "s0", atr=atr)
    # the type the test deployments belong to (an ADR precondition)
    atr.add_local_type(ActivityType(name="App", kind=TypeKind.CONCRETE))
    if request.param == "atr":
        return Core(sim, net, atr, make_type, atr.add_local_type,
                    type_to_wire, "ActivityTypeEntry")
    return Core(sim, net, adr, make_deployment, adr.add_local_deployment,
                deployment_to_wire, "ActivityDeployment")


class TestPublish:
    def test_lut_ops_and_query_agree_with_home(self, core):
        for index in range(3):
            core.sim.run(until=core.sim.now + 1.0)  # distinct LUTs
            core.add_local(core.make(index, "s0"))
        registry = core.registry
        keys = registry.home.keys()
        assert len(keys) >= 3
        expected = {key: registry.home.lookup(key).last_update_time
                    for key in keys}
        assert len(set(expected.values())) >= 3
        for key in keys:
            assert core.call("get_lut", key) == expected[key]
        assert core.call("get_lut", "ghost") is None
        assert core.call("get_lut_batch", keys + ["ghost"]) == {
            **expected, "ghost": None}
        assert len(core.call("query", f"//{core.tag}")) == len(keys)
        assert ({entry.epr.key for entry in registry.aggregation.entries()}
                == set(keys))

    def test_remove_local_leaves_no_trace(self, core):
        item = core.make(0, "s0")
        core.add_local(item)
        assert "home" in core.holders(item.key)
        assert core.registry.remove_local(item.key) is True
        assert core.holders(item.key) == []
        assert core.registry.remove_local(item.key) is False

    def test_unpublish_works_from_a_resource_already_swept(self, core):
        """An expiry sweep hands over a resource it took out of ``home``;
        a same-key cached copy must not outlive it either."""
        item = core.make(0, "s0")
        resource = core.add_local(item)
        core.registry.add_cached(item, resource.epr)
        resource.set_termination_time(core.sim.now)
        assert core.registry.home.sweep_expired(core.sim.now) == [resource]
        core.registry.unpublish(resource)
        if isinstance(core.registry, ActivityTypeRegistry):
            # a type this site still caches stays resolvable as cached
            assert core.holders(item.key) == ["cache", "cache_sources",
                                              "hierarchy"]
        else:
            assert core.holders(item.key) == []


class TestCache:
    def test_cache_wire_fills_cache_and_sources(self, core):
        item, epr, wire = core.remote_wire(0)
        resource = core.registry.cache_wire(wire)
        assert resource is core.registry.cache.lookup(item.key)
        assert resource.epr == epr
        assert core.registry.cache_sources[item.key] == epr
        held = core.holders(item.key)
        assert "home" not in held and "service group" not in held
        assert {"cache", "cache_sources"} <= set(held)

    def test_drop_cached_leaves_no_trace(self, core):
        item, _, wire = core.remote_wire(0)
        core.registry.cache_wire(wire)
        core.registry.drop_cached(item.key)
        assert core.holders(item.key) == []
        core.registry.drop_cached(item.key)  # idempotent

    def test_dropping_a_cached_copy_keeps_the_local_resource(self, core):
        item = core.make(0, "s0")
        resource = core.add_local(item)
        core.registry.add_cached(item, resource.epr)
        before = [h for h in core.holders(item.key)
                  if not h.startswith("cache")]
        core.registry.drop_cached(item.key)
        assert core.holders(item.key) == before

    def test_cache_disabled_makes_cache_wire_a_no_op(self, core):
        core.registry.cache_enabled = False
        item, epr, wire = core.remote_wire(0)
        assert core.registry.cache_wire(wire) is None
        assert core.holders(item.key) == []
        # ... and nothing is even parsed
        broken = dict(wire, xml="<not xml")
        assert core.registry.cache_wire(broken) is None
