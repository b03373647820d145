"""Semantics of the per-attempt RPC deadline.

The deadline is one cancellable timeout on the caller's own process:
expiry interrupts the attempt wherever it is suspended and surfaces as
``RpcTimeout``; every other exit withdraws the timeout, so a finished
call leaves nothing on the agenda.
"""

import math

import pytest

from repro.faults import FaultsConfig, ServiceErrorRule
from repro.net import Network, Topology
from repro.net.interceptors import Overloaded, RemoteError, RetryPolicy, RpcTimeout
from repro.net.message import Response
from repro.net.service import EchoService, Service
from repro.obs import Observability
from repro.simkernel import Simulator
from repro.simkernel.errors import Interrupt, OfflineError

LATENCY = 0.005


def make_net(cores=1, **kwargs):
    sim = Simulator(seed=1)
    sites = ("A", "B", "C")
    net = Network(sim, Topology.full_mesh(sites, latency=LATENCY, bandwidth=1e7),
                  **kwargs)
    for site in sites:
        net.add_node(site, cores=cores)
    return sim, net


class SlowService(Service):
    """Waits ``delay`` without holding a core, then answers.

    ``delay=None`` hangs on an event nobody fires, so an abandoned
    handler leaves no timeout of its own on the agenda.
    """

    SERVICE_NAME = "slow"

    def __init__(self, network, node_name, delay=None):
        super().__init__(network, node_name)
        self.delay = delay

    def op_work(self, message):
        if self.delay is None:
            yield self.sim.event()
        else:
            yield self.sim.timeout(self.delay)
        return Response(value="slow done")


class RelayService(Service):
    """Calls ``slow.work`` on C under its own, nested deadline."""

    SERVICE_NAME = "relay"

    def __init__(self, network, node_name, inner_timeout):
        super().__init__(network, node_name)
        self.inner_timeout = inner_timeout
        self.inner_outcome = None

    def op_work(self, message):
        try:
            value = yield from self.network.call(
                self.node_name, "C", "slow", "work", timeout=self.inner_timeout)
        except RpcTimeout:
            self.inner_outcome = "inner timeout"
            return Response(value="fallback")
        except Interrupt:
            self.inner_outcome = "outer deadline passed through"
            raise
        self.inner_outcome = "ok"
        return Response(value=value)


def run_call(sim, generator):
    """Drive ``generator`` in a process; return ``(outcome, finished_at)``."""
    result = {}

    def client():
        try:
            result["outcome"] = yield from generator
        except Exception as error:
            result["outcome"] = error
        result["at"] = sim.now

    sim.process(client())
    sim.run()
    return result["outcome"], result["at"]


def assert_idle(sim, net):
    """Nothing pending, nothing in flight, every core free."""
    assert math.isinf(sim.peek())
    for node in net.nodes.values():
        assert node.inflight_rpcs == 0
        assert node.cpu.running == 0 and node.cpu.run_queue_length == 0
        assert all(s.inflight == 0 for s in node.services.values())


class TestExpiry:
    def test_while_queued_for_the_server_cpu(self):
        sim, net = make_net(cores=1)
        EchoService(net, "B", demand=1.0)
        outcomes = []

        def client(timeout):
            try:
                yield from net.call("A", "B", "echo", "echo",
                                    payload="x", timeout=timeout)
                outcomes.append(("ok", sim.now))
            except RpcTimeout:
                outcomes.append(("timeout", sim.now))

        sim.process(client(10.0))  # takes B's only core for 1 s
        sim.process(client(0.5))   # expires in B's run queue
        sim.run()
        assert ("timeout", 0.5) in outcomes
        assert [kind for kind, _ in outcomes].count("ok") == 1
        assert_idle(sim, net)
        # the abandoned request was withdrawn, not granted to nobody:
        # B's core serves the next caller
        outcome, _ = run_call(sim, net.call("A", "B", "echo", "echo", payload="y"))
        assert outcome == "y"

    def test_while_on_the_wire(self):
        sim, net = make_net()
        EchoService(net, "B")
        outcome, at = run_call(sim, net.call(
            "A", "B", "echo", "echo", payload="x", timeout=LATENCY / 2))
        assert isinstance(outcome, RpcTimeout)
        assert at == LATENCY / 2
        assert net.node("B").messages_in == 0  # never arrived
        assert_idle(sim, net)

    def test_inside_the_handler(self):
        sim, net = make_net()
        slow = SlowService(net, "B")
        outcome, at = run_call(sim, net.call(
            "A", "B", "slow", "work", timeout=1.0))
        assert isinstance(outcome, RpcTimeout)
        assert "slow.work" in str(outcome) and "1.0" in str(outcome)
        assert at == 1.0
        assert slow.requests_failed == 1
        assert_idle(sim, net)

    def test_while_holding_a_core_releases_it(self):
        sim, net = make_net(cores=1)
        EchoService(net, "B", demand=2.0)
        outcome, at = run_call(sim, net.call(
            "A", "B", "echo", "echo", payload="x", timeout=1.0))
        assert isinstance(outcome, RpcTimeout) and at == 1.0
        assert_idle(sim, net)
        assert net.node("B").cpu.jobs_completed == 1  # unmarshal only


class TestNoDeadlineLeftBehind:
    """Any exit but expiry withdraws the timeout: the clock never runs on to it."""

    TIMEOUT = 50.0

    def finish(self, sim, net, generator):
        outcome, at = run_call(sim, generator)
        assert math.isinf(sim.peek())
        assert sim.now == at < self.TIMEOUT
        return outcome

    def test_success(self):
        sim, net = make_net()
        EchoService(net, "B")
        outcome = self.finish(sim, net, net.call(
            "A", "B", "echo", "echo", payload="x", timeout=self.TIMEOUT))
        assert outcome == "x"

    def test_overloaded(self):
        sim, net = make_net()
        EchoService(net, "B").admission_limit = 0
        outcome = self.finish(sim, net, net.call(
            "A", "B", "echo", "echo", payload="x", timeout=self.TIMEOUT))
        assert isinstance(outcome, Overloaded)

    def test_remote_error(self):
        sim = Simulator(seed=1)
        faults = FaultsConfig(service_errors=(
            ServiceErrorRule(service="echo", rate=1.0),))
        net = Network(sim, Topology.full_mesh(("A", "B"), latency=LATENCY,
                                              bandwidth=1e7), faults=faults)
        net.add_node("A")
        net.add_node("B")
        EchoService(net, "B")
        outcome = self.finish(sim, net, net.call(
            "A", "B", "echo", "echo", payload="x", timeout=self.TIMEOUT))
        assert isinstance(outcome, RemoteError)

    def test_offline_target(self):
        sim, net = make_net()
        EchoService(net, "B")
        net.faults.crash("B")
        outcome = self.finish(sim, net, net.call(
            "A", "B", "echo", "echo", payload="x", timeout=self.TIMEOUT))
        assert isinstance(outcome, OfflineError)

    def test_every_attempt_of_a_retried_call(self):
        sim, net = make_net()
        EchoService(net, "B")
        net.faults.crash("B")
        policy = RetryPolicy(attempts=3, per_try_timeout=self.TIMEOUT,
                             base_delay=0.1)
        outcome = self.finish(sim, net, net.call(
            "A", "B", "echo", "echo", payload="x", retry=policy))
        assert isinstance(outcome, OfflineError)
        assert net.retries_total == 2


class TestNestedDeadlines:
    def build(self, inner_timeout):
        sim, net = make_net()
        relay = RelayService(net, "B", inner_timeout)
        SlowService(net, "C")
        return sim, net, relay

    def test_shorter_inner_deadline_fires_alone(self):
        sim, net, relay = self.build(inner_timeout=1.0)
        outcome, at = run_call(sim, net.call(
            "A", "B", "relay", "work", timeout=3.0))
        assert outcome == "fallback"  # the outer call survived
        assert relay.inner_outcome == "inner timeout"
        assert 1.0 < at < 3.0
        assert_idle(sim, net)

    def test_longer_inner_deadline_lets_the_outer_one_through(self):
        sim, net, relay = self.build(inner_timeout=3.0)
        outcome, at = run_call(sim, net.call(
            "A", "B", "relay", "work", timeout=1.0))
        assert isinstance(outcome, RpcTimeout)
        assert "relay.work" in str(outcome)  # the outer call's, not slow.work
        assert relay.inner_outcome == "outer deadline passed through"
        assert at == 1.0
        assert_idle(sim, net)  # the inner deadline was withdrawn too
        assert sim.now == 1.0


class TestForeignInterrupt:
    def test_propagates_and_cancels_the_deadline(self):
        sim, net = make_net()
        SlowService(net, "B")
        seen = []

        def client():
            try:
                yield from net.call("A", "B", "slow", "work", timeout=50.0)
            except Interrupt as interrupt:
                seen.append((interrupt.cause, sim.now))

        proc = sim.process(client())

        def killer():
            yield sim.timeout(1.0)
            proc.interrupt("shutdown")

        sim.process(killer())
        sim.run()
        assert seen == [("shutdown", 1.0)]
        assert_idle(sim, net)
        assert sim.now == 1.0


class TestCost:
    def test_no_process_is_spawned_per_deadline_rpc(self, monkeypatch):
        sim, net = make_net(cores=2)
        EchoService(net, "B")

        def client():
            for _ in range(20):
                yield from net.call("A", "B", "echo", "echo",
                                    payload="x", timeout=5.0)

        proc = sim.process(client())
        spawned = []
        spawn = sim.process
        monkeypatch.setattr(
            sim, "process", lambda *a, **kw: spawned.append(a) or spawn(*a, **kw))
        sim.run(until=proc)
        assert spawned == []
        assert net.node("B").services["echo"].requests_handled == 20

    def test_a_disarmed_deadline_goes_back_to_the_free_list(self, monkeypatch):
        from repro.simkernel import events

        sim, net = make_net(cores=2)
        EchoService(net, "B")
        built = []
        init = events.Timeout.__init__
        monkeypatch.setattr(events.Timeout, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))

        def client(calls):
            for _ in range(calls):
                yield from net.call("A", "B", "echo", "echo",
                                    payload="x", timeout=5.0)

        sim.run(until=sim.process(client(5)))  # fills the free list
        built.clear()
        sim.run(until=sim.process(client(20)))
        assert built == []  # every deadline was a recycled timeout
        assert_idle(sim, net)

    def test_a_fired_deadline_stays_the_cause_of_its_interrupt(self):
        sim, net = make_net()
        SlowService(net, "B")
        outcome, _ = run_call(sim, net.call(
            "A", "B", "slow", "work", timeout=1.0))
        deadline = outcome.__context__.cause
        assert isinstance(outcome, RpcTimeout) and deadline.processed
        assert all(timeout is not deadline for timeout in sim._timeout_pool)


class TestObserved:
    # the rpc: span sits inside the deadline, so expiry reaches it as the
    # interrupt; RpcTimeout is what the caller outside the deadline sees
    @pytest.mark.parametrize("timeout, expected", [(1.0, "Interrupt"), (9.0, "ok")])
    def test_no_open_or_leaked_spans(self, timeout, expected):
        sim, net = make_net(obs=Observability())
        SlowService(net, "B", delay=5.0)
        outcome, _ = run_call(sim, net.call(
            "A", "B", "slow", "work", timeout=timeout))
        tracer = net.obs.tracer
        assert tracer.open_spans() == [] and tracer.leaked_spans() == []
        (rpc,) = tracer.find("rpc:slow.work")
        (serve,) = tracer.find("serve:slow.work")
        assert rpc.attrs["outcome"] == expected
        assert serve.parent_id == rpc.span_id  # no runner process in between
        assert isinstance(outcome, RpcTimeout) == (expected == "Interrupt")
        assert_idle(sim, net)
