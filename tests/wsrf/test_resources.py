"""Unit tests for WS-Resources, lifetime, service groups, notification."""

import pytest

from repro.net import Network, Topology
from repro.simkernel import Simulator
from repro.wsrf import (
    EndpointReference,
    LifetimeManager,
    NotificationBroker,
    NotificationSink,
    ResourceHome,
    ServiceGroup,
    WSResource,
)
from repro.wsrf.xmldoc import Element
from repro.wsrf.xpath import XPathQuery


def make_resource(key="r1", lut=0.0):
    epr = EndpointReference(
        address="siteA/registry", service="ActivityTypeRegistry", key=key,
        last_update_time=lut,
    )
    return WSResource(key, Element("Props", attrib={"name": key}), epr)


class TestEndpointReference:
    def test_site_extraction(self):
        epr = EndpointReference("innsbruck/atr", "ATR", "jpovray")
        assert epr.site == "innsbruck"

    def test_touched_updates_lut_only(self):
        epr = EndpointReference("a/s", "S", "k", last_update_time=1.0)
        fresh = epr.touched(9.0)
        assert fresh.last_update_time == 9.0
        assert fresh.same_resource(epr)

    def test_to_xml_shape(self):
        epr = EndpointReference("138.232.1.2/adr", "ActivityDeploymentRegistry", "jpovray")
        xml = epr.to_xml()
        assert xml.tag == "EndpointReference"
        assert "ActivityDeploymentRegistry" in xml.findtext("Address")
        ref = xml.find("ReferenceProperties")
        assert ref.findtext("ResourceKey") == "jpovray"
        assert ref.find("LastUpdateTime") is not None


class TestResourceHome:
    def test_named_lookup(self):
        home = ResourceHome()
        home.add(make_resource("a"))
        home.add(make_resource("b"))
        assert home.lookup("a").key == "a"
        assert home.lookup("zzz") is None
        assert sorted(home.keys()) == ["a", "b"]

    def test_replace_same_key(self):
        home = ResourceHome()
        first = home.add(make_resource("a"))
        second = home.add(make_resource("a"))
        assert home.lookup("a") is second
        assert len(home) == 1
        assert first is not second

    def test_destroyed_resources_vanish(self):
        home = ResourceHome()
        res = home.add(make_resource("a"))
        res.destroy()
        assert home.lookup("a") is None
        assert home.keys() == []

    def test_sweep_expired(self):
        home = ResourceHome()
        keep = home.add(make_resource("keep"))
        kill = home.add(make_resource("kill"))
        kill.set_termination_time(5.0)
        expired = home.sweep_expired(now=10.0)
        assert expired == [kill]
        assert home.lookup("keep") is keep
        assert home.lookup("kill") is None


class TestLifetimeManager:
    def test_periodic_sweep_and_listener(self):
        sim = Simulator()
        home = ResourceHome()
        res = home.add(make_resource("doomed"))
        res.set_termination_time(7.0)
        seen = []
        manager = LifetimeManager(sim, interval=2.0)
        manager.watch(home, listener=lambda r: seen.append((sim.now, r.key)))
        manager.start()
        sim.run(until=20)
        assert seen == [(8.0, "doomed")]
        assert manager.expired_total == 1

    def test_infinite_lifetime_survives(self):
        sim = Simulator()
        home = ResourceHome()
        home.add(make_resource("eternal"))
        manager = LifetimeManager(sim, interval=1.0)
        manager.watch(home)
        manager.start()
        sim.run(until=100)
        assert home.lookup("eternal") is not None


class TestServiceGroup:
    def test_add_query_remove(self):
        sim = Simulator()
        group = ServiceGroup(sim)
        res = make_resource("k1")
        group.add(res.epr, res.properties)
        assert len(group) == 1
        assert group.find_by_key("k1") is not None
        assert group.remove(res.epr) is True
        assert len(group) == 0

    def test_refresh_pulls_new_content(self):
        sim = Simulator()
        group = ServiceGroup(sim, refresh_interval=5.0)
        state = {"doc": Element("V", attrib={"v": "1"})}
        res = make_resource("k1")
        group.add(res.epr, state["doc"], provider=lambda: state["doc"])
        state["doc"] = Element("V", attrib={"v": "2"})
        group.start()
        sim.run(until=6)
        assert group.entries()[0].content.get("v") == "2"

    def test_vanished_member_dropped_after_misses(self):
        sim = Simulator()
        group = ServiceGroup(sim, refresh_interval=1.0, max_stale_misses=2)
        res = make_resource("gone")
        group.add(res.epr, res.properties, provider=lambda: None)
        group.start()
        sim.run(until=5)
        assert len(group) == 0


class TestServiceGroupSnapshot:
    """``documents()`` is one indexed snapshot between two changes."""

    QUERY = XPathQuery.compile("//V[@v='1']")

    def _group(self, n=3):
        sim = Simulator()
        group = ServiceGroup(sim)
        self.state = {f"k{i}": Element("V", attrib={"v": str(i)}) for i in range(n)}
        self.pulls = {key: 0 for key in self.state}
        self.resources = {key: make_resource(key) for key in self.state}
        for key, res in self.resources.items():
            group.add(res.epr, self.state[key], provider=lambda k=key: self._pull(k))
        return group

    def _pull(self, key):
        self.pulls[key] += 1
        return self.state[key]

    def test_snapshot_and_index_reused_across_queries(self):
        group = self._group()
        first = group.documents()
        assert self.QUERY.evaluate(first) == ([self.state["k1"]], 6)
        tags = first._by_tag
        assert tags is not None
        assert self.QUERY.evaluate(group.documents()) == ([self.state["k1"]], 6)
        assert group.documents() is first
        assert first._by_tag is tags

    def test_add_and_remove_drop_the_snapshot(self):
        group = self._group()
        before = group.documents()
        self.QUERY.evaluate(before)
        extra = Element("V", attrib={"v": "1"})
        group.add(make_resource("k9").epr, extra)
        after_add = group.documents()
        assert after_add is not before and after_add._by_tag is None
        assert self.QUERY.evaluate(after_add) == ([self.state["k1"], extra], 8)
        assert group.remove(self.resources["k1"].epr)
        after_remove = group.documents()
        assert after_remove is not after_add
        assert self.QUERY.evaluate(after_remove) == ([extra], 6)
        assert not group.remove(self.resources["k1"].epr)
        assert group.documents() is after_remove  # nothing changed: kept

    def test_refresh_one_entry_pulls_only_that_provider(self):
        group = self._group()
        before = group.documents()
        assert self.QUERY.evaluate(before)[0] == [self.state["k1"]]
        self.state["k2"] = Element("V", attrib={"v": "1"})
        assert group.refresh(self.resources["k2"].epr)
        assert self.pulls == {"k0": 0, "k1": 0, "k2": 1}
        assert group.refreshes == 0  # counts periodic rounds only
        after = group.documents()
        assert after is not before
        assert self.QUERY.evaluate(after)[0] == [self.state["k1"], self.state["k2"]]

    def test_refresh_of_unlisted_or_gone_member_changes_nothing(self):
        group = self._group()
        before = group.documents()
        assert not group.refresh(make_resource("stranger").epr)
        self.state["k0"] = None  # provider reports the member gone
        assert not group.refresh(self.resources["k0"].epr)
        assert group.documents() is before and len(group) == 3

    def test_refresh_all_drops_the_snapshot(self):
        group = self._group()
        before = group.documents()
        self.QUERY.evaluate(before)
        self.state["k0"] = Element("V", attrib={"v": "1"})
        group.refresh_all()
        assert group.refreshes == 1
        after = group.documents()
        assert after is not before
        assert self.QUERY.evaluate(after)[0] == [self.state["k0"], self.state["k1"]]


class TestNotification:
    def make_world(self):
        sim = Simulator(seed=3)
        topo = Topology.full_mesh(["pub", "s1", "s2"], latency=0.002, bandwidth=1e7)
        net = Network(sim, topo)
        for s in ("pub", "s1", "s2"):
            net.add_node(s)
        return sim, net

    def test_fanout_delivery(self):
        sim, net = self.make_world()
        sink1 = NotificationSink(net, "s1")
        sink2 = NotificationSink(net, "s2")
        broker = NotificationBroker(net, "pub")
        broker.subscribe("updates", "s1", sink1.name)
        broker.subscribe("updates", "s2", sink2.name)
        broker.publish("updates", {"event": "deployed"})
        sim.run()
        assert sink1.received == [{"event": "deployed"}]
        assert sink2.received == [{"event": "deployed"}]
        assert broker.delivered == 2

    def test_offline_sink_unsubscribed(self):
        sim, net = self.make_world()
        sink = NotificationSink(net, "s1")
        broker = NotificationBroker(net, "pub")
        broker.subscribe("t", "s1", sink.name)
        net.set_online("s1", False)
        broker.publish("t", "x")
        sim.run()
        assert broker.failed_deliveries == 1
        assert broker.subscriber_count("t") == 0

    def test_unsubscribe_stops_delivery(self):
        sim, net = self.make_world()
        sink = NotificationSink(net, "s1")
        broker = NotificationBroker(net, "pub")
        sub = broker.subscribe("t", "s1", sink.name)
        broker.unsubscribe(sub)
        broker.publish("t", "x")
        sim.run()
        assert sink.received == []

    def test_publish_loads_publisher_cpu(self):
        sim, net = self.make_world()
        sinks = [NotificationSink(net, "s1", name=f"sink{i}") for i in range(20)]
        broker = NotificationBroker(net, "pub", publish_demand=0.01)
        for sink in sinks:
            broker.subscribe("t", "s1", sink.name)
        broker.publish("t", "payload")
        sim.run()
        pub_cpu = net.node("pub").cpu
        assert pub_cpu.busy_time >= 20 * 0.01 * 0.9
