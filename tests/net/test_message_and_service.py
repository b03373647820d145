"""Tests for message envelopes, size estimation, and service helpers."""

import pytest

from repro.net.message import Message, Response, WireDict, _repr_len, estimate_size
from repro.net.service import EchoService, Service
from repro.net import Network, Topology
from repro.simkernel import CPU, Simulator


class TestSizeEstimation:
    def test_floor_applies(self):
        assert estimate_size(None) == 256
        assert estimate_size("x") == 256

    def test_grows_with_payload(self):
        small = estimate_size("a" * 100)
        large = estimate_size("a" * 10_000)
        assert large > small
        assert large >= 10_000

    def test_message_autosizes(self):
        message = Message(src="a", dst="b", service="s", method="m",
                          payload="p" * 5000)
        assert message.size >= 5000
        explicit = Message(src="a", dst="b", service="s", method="m",
                           payload="p", size=12345)
        assert explicit.size == 12345

    def test_response_autosizes(self):
        assert Response(value=None).size == 256
        assert Response(value="v" * 4000).size >= 4000
        assert Response(value="v", size=9).size == 9

    def test_message_ids_unique(self):
        a = Message(src="a", dst="b", service="s", method="m")
        b = Message(src="a", dst="b", service="s", method="m")
        assert a.msg_id != b.msg_id


class TestServiceHelpers:
    def make_net(self):
        sim = Simulator(seed=3)
        topo = Topology.full_mesh(["x", "y"], latency=0.002, bandwidth=1e7)
        net = Network(sim, topo)
        net.add_node("x")
        net.add_node("y")
        return sim, net

    def test_duplicate_service_name_rejected(self):
        sim, net = self.make_net()
        EchoService(net, "x")
        with pytest.raises(ValueError, match="already deployed"):
            EchoService(net, "x")

    def test_distinct_names_coexist(self):
        sim, net = self.make_net()
        EchoService(net, "x", name="echo-1")
        EchoService(net, "x", name="echo-2")
        assert set(net.node("x").services) == {"echo-1", "echo-2"}

    def test_service_to_service_call(self):
        sim, net = self.make_net()

        class Relay(Service):
            SERVICE_NAME = "relay"

            def op_forward(self, message):
                value = yield from self.call("y", "echo", "echo",
                                             payload=message.payload)
                return f"relayed:{value}"

        Relay(net, "x")
        EchoService(net, "y")

        def client():
            value = yield from net.call("y", "x", "relay", "forward",
                                        payload="ping")
            return value

        proc = sim.process(client())
        sim.run()
        assert proc.value == "relayed:ping"

    def test_requests_handled_counter(self):
        sim, net = self.make_net()
        echo = EchoService(net, "y")

        def client():
            for _ in range(3):
                yield from net.call("x", "y", "echo", "echo", payload=1)

        sim.process(client())
        sim.run()
        assert echo.requests_handled == 3


class TestCpuAccounting:
    def test_utilization_fraction(self):
        sim = Simulator()
        cpu = CPU(sim, cores=2)

        def burn():
            yield from cpu.execute(10.0)

        sim.process(burn())
        sim.process(burn())
        sim.run(until=20.0)
        # 20 core-seconds of work over 20s on 2 cores = 50%
        assert cpu.utilization() == pytest.approx(0.5, abs=0.01)

    def test_speed_scales_duration(self):
        sim = Simulator()
        fast = CPU(sim, cores=1, speed=2.0)
        done = []

        def burn():
            yield from fast.execute(10.0)
            done.append(sim.now)

        sim.process(burn())
        sim.run()
        assert done == [5.0]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CPU(sim, cores=0)
        with pytest.raises(ValueError):
            CPU(sim, cores=1, speed=0)
        cpu = CPU(sim, cores=1)
        with pytest.raises(ValueError):
            list(cpu.execute(-1))


class TestSizeEstimationExactness:
    """The compositional fast path must equal ``max(floor, len(repr(p)))``.

    :func:`repro.net.message.estimate_size` documents this identity;
    the memoized/compositional computation is purely a speedup.
    """

    def test_scalars(self):
        for payload in ("", "hello", "x" * 5000, 0, -17, 3.14159, True, False):
            assert estimate_size(payload) == max(256, len(repr(payload)))

    def test_nested_containers(self):
        payloads = [
            {},
            [],
            {"key": "value", "n": 42},
            ["a", "b", {"c": [1, 2, 3]}],
            {"xml": "<Entry name='x'/>" * 100, "meta": {"depth": [None, True]}},
            {"quotes": 'she said "hi"', "apos": "it's"},
        ]
        for payload in payloads:
            assert estimate_size(payload) == max(256, len(repr(payload)))

    def test_memoized_strings_stay_exact(self):
        # repeated calls hit the repr-length memo; values must not drift
        payload = {"path": "/opt/app/bin/app", "site": "s0"}
        first = estimate_size(payload)
        for _ in range(5):
            assert estimate_size(payload) == first == max(256, len(repr(payload)))

    def test_wire_dict_is_sized_over_its_canonical_body(self):
        epr = {"address": "s0/atr", "service": "atr", "key": "k", "lut": 1.5}
        xml = "<T name='it&apos;s' note=\"q\">\n  <D>a\\b</D>\n</T>" * 40
        plain = {"xml": xml, "epr": epr}
        wire = WireDict(plain, name="T", site="s0", type="T")
        assert repr(wire) == repr(plain)  # metadata adds no bytes
        assert estimate_size(wire) == estimate_size(plain) == len(repr(plain))
        assert estimate_size({"types": [wire, wire], "deployments": []}) == len(
            repr({"types": [plain, plain], "deployments": []}))
        # a wire missing part of its body still measures exactly
        for partial in (WireDict(), WireDict(name="T"), WireDict(xml=xml),
                        WireDict(epr=epr), WireDict(xml=None, epr=[1, 2])):
            assert _repr_len(partial) == len(repr(partial))

    def test_a_payload_whose_repr_raises_surfaces(self):
        # no blanket catch: an unprintable payload is a bug to see, not
        # a message silently charged the floor
        class Unprintable:
            def __repr__(self):
                raise RuntimeError("no repr")

        with pytest.raises(RuntimeError, match="no repr"):
            estimate_size({"value": [Unprintable()]})
        with pytest.raises(RuntimeError, match="no repr"):
            Message("a", "b", "svc", "op", payload=Unprintable())


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis always in CI
    pass
else:
    _scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=40),
    )
    _payloads = st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=10), children, max_size=5),
        ),
        max_leaves=25,
    )

    # XML-ish text with everything repr escapes or re-quotes
    _documents = st.text(alphabet="ab <>&=/'\"\\\n\t", max_size=120)

    @given(xml=_documents,
           epr=st.dictionaries(st.sampled_from(["address", "service", "key", "lut"]),
                               st.one_of(_documents, st.floats(allow_nan=False))),
           meta=st.dictionaries(st.sampled_from(["name", "site", "type"]), _documents),
           drop=st.sets(st.sampled_from(["xml", "epr"])))
    @settings(max_examples=300)
    def test_wire_dict_size_equals_repr_length(xml, epr, meta, drop):
        body = {key: value for key, value in (("xml", xml), ("epr", epr))
                if key not in drop}
        wire = WireDict(body, **meta)
        assert repr(wire) == repr(body)
        assert _repr_len(wire) == len(repr(wire))
        assert estimate_size(wire) == max(256, len(repr(wire)))
        assert estimate_size([wire, {"w": wire}]) == max(
            256, len(repr([body, {"w": body}])))

    @given(_payloads)
    @settings(max_examples=300)
    def test_estimate_size_equals_repr_length(payload):
        expected = 256 if payload is None else max(256, len(repr(payload)))
        assert estimate_size(payload) == expected
