"""Unit tests for the RPC stack: the observing transport stage, the
retry engine and admission control."""

import dataclasses

import pytest

from repro.net import Network, Topology
from repro.net.interceptors import Overloaded, RemoteError, RetryPolicy, RpcTimeout
from repro.net.message import Message, Response
from repro.net.service import EchoService, Service
from repro.obs import Observability
from repro.simkernel import Simulator
from repro.simkernel.errors import OfflineError
from repro.vo import build_vo


def make_net(sites=("A", "B", "C"), seed=1):
    sim = Simulator(seed=seed)
    topo = Topology.full_mesh(sites, latency=0.005, bandwidth=1e7)
    net = Network(sim, topo)
    for s in sites:
        net.add_node(s, cores=2)
    return sim, net


class FlakyService(Service):
    """Fails the first ``failures`` dispatches, then succeeds."""

    SERVICE_NAME = "flaky"

    def __init__(self, network, node_name, failures=2,
                 error=OfflineError, demand=0.001):
        super().__init__(network, node_name)
        self.failures = failures
        self.error = error
        self.demand = demand
        self.attempts_seen = 0

    def op_work(self, message):
        yield from self.compute(self.demand)
        self.attempts_seen += 1
        if self.attempts_seen <= self.failures:
            raise self.error(f"induced failure #{self.attempts_seen}")
        return Response(value=f"ok after {self.attempts_seen}")


class SlowService(Service):
    SERVICE_NAME = "slow"

    def __init__(self, network, node_name, delay=5.0):
        super().__init__(network, node_name)
        self.delay = delay

    def op_work(self, message):
        yield self.sim.timeout(self.delay)
        return Response(value="slow done")


def make_observed_net(enabled=True):
    """A two-site network whose VO observes: tracer and metrics when
    ``enabled``, plus attempt- and call-level SLOs over every endpoint."""
    from repro.obs import Observability
    from repro.obs.slo import SLOSpec

    slos = (SLOSpec(name="attempts", endpoint="*", target=0.9,
                    level="attempt", alerts=()),
            SLOSpec(name="calls", endpoint="*", target=0.9,
                    level="call", alerts=()))
    sim = Simulator(seed=1)
    topo = Topology.full_mesh(("A", "B"), latency=0.005, bandwidth=1e7)
    net = Network(sim, topo, obs=Observability(enabled=enabled, slos=slos))
    for site in ("A", "B"):
        net.add_node(site, cores=2)
    return sim, net


def run_calls(sim, net, *calls):
    """Run each ``(service, method, retry)`` call from A to B in turn;
    returns each outcome (the value, or the error it raised)."""
    outcomes = []

    def client():
        for service, method, retry in calls:
            try:
                outcomes.append((yield from net.call(
                    "A", "B", service, method, payload="x", retry=retry)))
            except Exception as error:
                outcomes.append(error)

    sim.process(client())
    sim.run()
    return outcomes


def counter_values(net, name):
    """``{endpoint: value}`` of every ``name`` counter in the registry."""
    return {dict(c.labels)["endpoint"]: c.value
            for c in net.obs.metrics.counters() if c.name == name}


def generator_depth(gen, stop):
    """Frames from ``gen`` down its ``yield from`` chain to ``stop``'s code."""
    depth = 1
    while gen.gi_code is not stop.__code__:
        gen = gen.gi_yieldfrom
        assert gen is not None, "the chain never reached the transport stage"
        depth += 1
    return depth


class TestCompose:
    """How one attempt composes its observers: the transport stage opens
    the ``rpc:`` span, and one ``finally`` records the attempt SLI, the
    ``rpc.*`` metrics, then the span's outcome and close, in that order;
    the call-level SLI comes after, from the stage that owns the call."""

    def test_default_pipeline_has_no_layers(self):
        sim, net = make_net()
        EchoService(net, "B")
        assert net._observed is None
        assert run_calls(sim, net, ("echo", "echo", None)) == ["x"]
        assert net.obs.tracer.spans == []
        assert list(net.obs.metrics.counters()) == []

    def test_attempt_sli_is_recorded_before_the_call_level_one(self):
        sim, net = make_observed_net()
        EchoService(net, "B")
        engine, tracer = net.obs.slo, net.obs.tracer
        seen = []
        record = engine.record

        def spy(endpoint, started, ended, ok, level="attempt"):
            calls = counter_values(net, "rpc.calls").get(endpoint, 0)
            seen.append((level, calls, [s.name for s in tracer.open_spans()]))
            record(endpoint, started, ended, ok, level=level)

        engine.record = spy
        run_calls(sim, net, ("echo", "echo", None),
                  ("echo", "echo", RetryPolicy.single(1.0)),
                  ("echo", "echo", RetryPolicy(attempts=2, deadline=5.0)))
        # each attempt SLI sees its call not yet counted and its span
        # still open; each call-level SLI follows with both done
        assert seen == [
            ("attempt", 0, ["rpc:echo.echo"]), ("call", 1, []),
            ("attempt", 1, ["rpc:echo.echo"]), ("call", 2, []),
            ("attempt", 2, ["rpc:echo.echo"]), ("call", 3, []),
        ]

    def test_rpc_errors_is_absent_until_the_first_error(self):
        from repro.obs.export import render_metrics

        sim, net = make_observed_net()
        EchoService(net, "B")
        run_calls(sim, net, ("echo", "echo", None), ("echo", "echo", None))
        assert counter_values(net, "rpc.calls") == {"echo.echo": 2}
        assert counter_values(net, "rpc.errors") == {}
        assert "rpc.errors" not in render_metrics(net.obs.metrics)
        outcome, = run_calls(sim, net, ("echo", "fail", None))
        assert isinstance(outcome, RuntimeError)
        assert counter_values(net, "rpc.errors") == {"echo.fail": 1}
        assert "rpc.errors" in render_metrics(net.obs.metrics)

    def test_one_failure_shows_in_span_metrics_and_sli(self):
        sim, net = make_observed_net()
        FlakyService(net, "B", failures=10, error=ValueError)
        outcome, = run_calls(sim, net, ("flaky", "work", None))
        assert isinstance(outcome, ValueError)
        span, = net.obs.tracer.find("rpc:")
        assert list(span.attrs) == ["src", "dst", "outcome", "error"]
        assert span.attrs["outcome"] == "ValueError"
        assert "induced failure #1" in span.attrs["error"]
        assert counter_values(net, "rpc.calls") == {"flaky.work": 1}
        assert counter_values(net, "rpc.errors") == {"flaky.work": 1}
        latency, = (h for h in net.obs.metrics.histograms()
                    if h.name == "rpc.latency")
        assert latency.count == 1
        attempts = net.obs.slo.status("attempts")
        assert (attempts.total, attempts.bad) == (1, 1)

    @pytest.mark.parametrize("observed", [False, True])
    def test_a_failed_attempt_leaves_no_reference_cycle(self, observed):
        """The stage keeps the error for its exits, then lets it go: the
        traceback holds the stage's frame, so a kept error would be a
        cycle per failed attempt, freed only by the cyclic collector."""
        import gc
        import weakref

        class Boom(Exception):
            pass

        if observed:
            sim, net = make_observed_net()
        else:
            sim, net = make_net()
        FlakyService(net, "B", failures=1, error=Boom)
        refs = []

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work")
            except Boom as error:
                refs.append(weakref.ref(error))

        gc.disable()
        try:
            sim.process(client())
            sim.run()
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

    def test_slo_only_network_records_slis_but_no_spans_or_metrics(self):
        sim, net = make_observed_net(enabled=False)
        FlakyService(net, "B", failures=2)
        outcome, = run_calls(sim, net, ("flaky", "work",
                                        RetryPolicy(attempts=4, base_delay=0.5)))
        assert outcome == "ok after 3"
        engine = net.obs.slo
        assert (engine.status("attempts").total,
                engine.status("attempts").bad) == (3, 2)
        assert (engine.status("calls").total, engine.status("calls").bad) == (1, 0)
        assert net.obs.tracer.spans == []
        assert list(net.obs.metrics.counters()) == []
        assert list(net.obs.metrics.histograms()) == []
        assert net._observed == {}


class TestPipelineDepth:
    """Every frame between a process and its event is re-entered per resume."""

    def test_everything_on_is_at_most_three_generators_deep(self):
        """Exactly one: the observing transport, which holds the deadline."""
        from repro.faults import FaultsConfig, LinkRule
        from repro.obs import Observability
        from repro.obs.slo import SLOSpec

        sim = Simulator(seed=1)
        topo = Topology.full_mesh(("A", "B"), latency=0.005, bandwidth=1e7)
        net = Network(
            sim, topo,
            obs=Observability(slos=(SLOSpec(name="all", endpoint="*"),)),
            faults=FaultsConfig(links=(LinkRule(loss=0.01),)),
        )
        for site in ("A", "B"):
            net.add_node(site, cores=2)
        assert net.obs.enabled and net.obs.slo is not None
        assert net.faults.enabled
        call = net.call("A", "B", "echo", "echo", retry=RetryPolicy.single(1.0))
        sim.process(call)
        sim.step()  # run the call up to its first wait
        # the transport itself, waiting on its marshal claim in place
        assert generator_depth(call, Network._transport) == 1

    def test_everything_off_is_the_transport_itself(self):
        _, net = make_net()
        call = net.call("A", "B", "echo", "echo")
        assert call.gi_code is Network._transport.__code__


class TestRetryPolicy:
    def test_single_reproduces_call_with_timeout(self):
        """call(retry=single(T)) and call(timeout=T) agree."""
        results = {}
        for key in ("timeout", "policy"):
            sim, net = make_net()
            SlowService(net, "B", delay=5.0)

            def client(k=key, s=sim, n=net):
                try:
                    if k == "timeout":
                        yield from n.call("A", "B", "slow", "work", timeout=1.0)
                    else:
                        yield from n.call(
                            "A", "B", "slow", "work",
                            retry=RetryPolicy.single(1.0))
                except RpcTimeout as error:
                    return (s.now, str(error))

            proc = sim.process(client())
            sim.run()
            results[key] = proc.value
        assert results["timeout"] == results["policy"]

    @pytest.mark.parametrize("field, fields", [
        ("attempts", {"attempts": 0, "per_try_timeout": 1.0}),
        ("deadline", {"attempts": 2, "deadline": -1.0}),
        ("deadline", {"deadline": 0.0}),
        ("per_try_timeout", {"per_try_timeout": 0.0}),
        ("backoff", {"backoff": "linaer"}),
        ("base_delay", {"base_delay": -0.5}),
        ("max_delay", {"max_delay": -1.0}),
        ("jitter", {"jitter": -0.1}),
        ("jitter", {"jitter": float("nan")}),
    ])
    def test_fields_are_checked_when_built(self, field, fields):
        """A malformed policy fails where it is written, not mid-call
        with an ``AssertionError`` (or, for a misspelt backoff, never)."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            RetryPolicy(**fields)

    def test_engaged(self):
        assert not RetryPolicy().engaged
        assert RetryPolicy(attempts=2).engaged
        assert RetryPolicy(per_try_timeout=1.0).engaged
        assert RetryPolicy(deadline=5.0).engaged

    def test_retries_transient_error_until_success(self):
        sim, net = make_net()
        svc = FlakyService(net, "B", failures=2)
        policy = RetryPolicy(attempts=4, base_delay=0.5, multiplier=2.0)

        def client():
            value = yield from net.call("A", "B", "flaky", "work", retry=policy)
            return value

        proc = sim.process(client())
        sim.run()
        assert proc.value == "ok after 3"
        assert svc.attempts_seen == 3
        assert net.retries_total == 2
        # backoff delays 0.5 + 1.0 elapsed between the attempts
        assert sim.now > 1.5

    def test_attempts_exhausted_reraises(self):
        sim, net = make_net()
        FlakyService(net, "B", failures=10)
        policy = RetryPolicy(attempts=3, base_delay=0.1)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work", retry=policy)
            except OfflineError as error:
                return str(error)

        proc = sim.process(client())
        sim.run()
        assert "induced failure #3" in proc.value

    def test_non_transient_error_not_retried(self):
        sim, net = make_net()
        svc = FlakyService(net, "B", failures=10, error=ValueError)
        policy = RetryPolicy(attempts=5, base_delay=0.1)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work", retry=policy)
            except ValueError:
                return "raised"

        proc = sim.process(client())
        sim.run()
        assert proc.value == "raised"
        assert svc.attempts_seen == 1
        assert net.retries_total == 0

    def test_retry_on_extends_the_transient_set(self):
        sim, net = make_net()
        svc = FlakyService(net, "B", failures=1, error=ValueError)
        policy = RetryPolicy(attempts=3, base_delay=0.1, retry_on=(ValueError,))

        def client():
            value = yield from net.call("A", "B", "flaky", "work", retry=policy)
            return value

        proc = sim.process(client())
        sim.run()
        assert proc.value == "ok after 2"
        assert svc.attempts_seen == 2

    def test_deadline_bounds_total_budget(self):
        sim, net = make_net()
        FlakyService(net, "B", failures=100)
        policy = RetryPolicy(attempts=50, base_delay=2.0, multiplier=1.0,
                             backoff="linear", deadline=5.0)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work", retry=policy)
            except OfflineError:
                return sim.now

        proc = sim.process(client())
        sim.run()
        assert proc.value <= 5.0 + 1.0  # deadline plus one attempt's latency

    def test_offline_target_retried_after_recovery(self):
        sim, net = make_net()
        EchoService(net, "B")
        net.faults.crash("B")
        policy = RetryPolicy(attempts=5, base_delay=2.0, multiplier=1.0,
                             backoff="linear")

        def recover():
            yield sim.timeout(3.0)
            net.faults.restart("B")

        def client():
            value = yield from net.call(
                "A", "B", "echo", "echo", payload="hi", retry=policy)
            return value

        sim.process(recover())
        proc = sim.process(client())
        sim.run()
        assert proc.value == "hi"
        assert net.retries_total >= 1


class TestPolicyMemo:
    """A deadline is a number: a call's ``timeout`` overrides its policy's
    per-try timeout, so no timed copy of a policy is built or kept."""

    @staticmethod
    def expiry(policy, timeout=None):
        """``(text, instant, retries)`` of a call's ``RpcTimeout`` from a
        20 s handler."""
        sim, net = make_net()
        SlowService(net, "B", delay=20.0)

        def client():
            try:
                yield from net.call("A", "B", "slow", "work", retry=policy,
                                    timeout=timeout)
            except RpcTimeout as error:
                return str(error), sim.now, net.retries_total

        proc = sim.process(client())
        sim.run()
        return proc.value

    def test_single_is_one_attempt_with_a_deadline(self):
        assert RetryPolicy.single(8.0) == RetryPolicy(attempts=1, per_try_timeout=8.0)

    def test_an_int_and_a_float_timeout_stay_apart(self):
        as_int, as_float = RetryPolicy.single(8), RetryPolicy.single(8.0)
        assert type(as_int.per_try_timeout) is int
        assert self.expiry(as_int)[0].endswith("timed out after 8s")
        assert self.expiry(as_float)[0].endswith("timed out after 8.0s")
        assert self.expiry(None, timeout=8)[0].endswith("timed out after 8s")

    @pytest.mark.parametrize("policy", [
        RetryPolicy.single(1.0),
        RetryPolicy(attempts=3, per_try_timeout=1.0, jitter=0.1),
        RetryPolicy(attempts=2, deadline=40.0),
    ], ids=["single", "retried", "deadline"])
    def test_call_timeout_overrides_per_try(self, policy):
        """``call(retry=P, timeout=T)`` is ``call(retry=P')`` with P' the
        policy whose ``per_try_timeout`` is T, on either route."""
        timed = dataclasses.replace(policy, per_try_timeout=2.5)
        assert self.expiry(policy, timeout=2.5) == self.expiry(timed)

    @pytest.mark.parametrize("rpc_retry", [None, RetryPolicy(attempts=3, base_delay=0.1)])
    def test_rdm_rpc_overrides_the_per_try_timeout(self, rpc_retry, monkeypatch):
        vo = build_vo(n_sites=2, seed=4, monitors=False, lifecycle=False,
                      rpc_retry=rpc_retry)
        rdm = vo.stack("agrid00").rdm
        sent = []
        monkeypatch.setattr(
            vo.network, "call",
            lambda *args, retry=None, timeout=None, **kwargs: sent.append((retry, timeout)))
        probe = RetryPolicy.single(8.0)
        rdm.rpc("agrid01", "ping", timeout=2.5)
        rdm.rpc("agrid01", "ping")
        rdm.rpc("agrid01", "ping", retry=probe)
        rdm.rpc("agrid01", "ping", retry=probe, timeout=2.5)
        # the default policy rides along; a given one replaces it
        assert sent == [(rpc_retry, 2.5), (rpc_retry, None), (probe, None), (probe, 2.5)]

    @pytest.mark.parametrize("rpc_retry, per_try", [
        (None, 10.0),
        (RetryPolicy(attempts=3, base_delay=0.1), 10.0),
        (RetryPolicy(attempts=3, per_try_timeout=4.0), 4.0),
    ])
    def test_known_sites_fills_in_ten_seconds(self, rpc_retry, per_try, monkeypatch):
        """``known_sites`` waits 10 s per attempt unless the default
        policy sets its own per-try timeout."""
        vo = build_vo(n_sites=2, seed=4, monitors=False, lifecycle=False,
                      rpc_retry=rpc_retry)
        sent = []

        def call(src, dst, service, method, *args, retry=None, timeout=None, **kwargs):
            if method == "list_sites":
                sent.append((retry, timeout))
            return ["agrid00"]
            yield  # a generator, like Network.call

        monkeypatch.setattr(vo.network, "call", call)
        vo.run_process(vo.stack("agrid01").rdm.known_sites())
        assert sent == [(rpc_retry, per_try)]


class TestRemoteError:
    def test_wraps_cause_and_preserves_type_name(self):
        error = RemoteError(ValueError("boom"))
        assert error.error_type == "ValueError"
        assert not error.transient

    def test_transient_follows_cause(self):
        error = RemoteError(Overloaded("shed"))
        assert error.transient
        assert RetryPolicy(attempts=2).retryable(error)


class TestAdmissionControl:
    def test_overload_sheds_with_counter(self):
        sim, net = make_net()
        svc = SlowService(net, "B", delay=2.0)
        svc.admission_limit = 2
        outcomes = []

        def client(index):
            try:
                yield from net.call("A", "B", "slow", "work")
                outcomes.append("ok")
            except Overloaded:
                outcomes.append("shed")

        for i in range(4):
            sim.process(client(i))
        sim.run()
        assert outcomes.count("ok") == 2
        assert outcomes.count("shed") == 2
        assert svc.requests_shed == 2
        assert svc.requests_handled == 2
        assert svc.inflight == 0

    def test_shed_tally_is_labelled_per_op(self):
        sim, net = make_net()
        svc = SlowService(net, "B", delay=2.0)
        svc.admission_limit = 1

        def client():
            try:
                yield from net.call("A", "B", "slow", "work")
            except Overloaded:
                pass

        for i in range(5):
            sim.process(client())
        sim.run()
        assert svc.requests_shed == 4
        assert svc.shed_by_op == {"work": 4}
        assert sum(svc.shed_by_op.values()) == svc.requests_shed

    def test_a_relayed_shed_is_counted_once_where_it_was_shed(self):
        """The ``Overloaded`` C sheds crosses B's handler unwrapped; only
        the attempt that reached C counts it in ``rpc.shed``."""
        sim = Simulator(seed=1)
        net = Network(sim, Topology.full_mesh(("A", "B", "C"), latency=0.005,
                                              bandwidth=1e7),
                      obs=Observability())
        for name in ("A", "B", "C"):
            net.add_node(name)
        SlowService(net, "C").admission_limit = 0

        class Relay(Service):
            SERVICE_NAME = "relay"

            def op_work(self, message):
                return (yield from self.call("C", "slow", "work"))

        Relay(net, "B")
        outcomes = []

        def client():
            try:
                yield from net.call("A", "B", "relay", "work")
            except Overloaded:
                outcomes.append("shed")

        sim.process(client())
        sim.run()
        assert outcomes == ["shed"]
        assert [(c.labels, c.value) for c in net.obs.metrics.counters()
                if c.name == "rpc.shed"] == [
            ((("node", "C"), ("op", "work"), ("service", "slow")), 1)]

    def test_shed_request_is_retryable(self):
        assert Overloaded("x").transient
        assert RetryPolicy(attempts=2).retryable(Overloaded("x"))

    def test_no_limit_by_default(self):
        sim, net = make_net()
        svc = SlowService(net, "B", delay=1.0)
        for i in range(6):
            sim.process(self._client(net))
        sim.run()
        assert svc.requests_handled == 6
        assert svc.requests_shed == 0

    @staticmethod
    def _client(net):
        yield from net.call("A", "B", "slow", "work")


class TestSLOInterceptor:
    @staticmethod
    def make_slo_net(enabled=False):
        from repro.obs import Observability
        from repro.obs.slo import SLOSpec

        sim = Simulator(seed=1)
        topo = Topology.full_mesh(("A", "B"), latency=0.005, bandwidth=1e7)
        obs = Observability(enabled=enabled, slos=(
            SLOSpec(name="attempts", endpoint="flaky.*", target=0.9,
                    level="attempt", alerts=()),
            SLOSpec(name="calls", endpoint="flaky.*", target=0.9,
                    level="call", alerts=()),
        ))
        net = Network(sim, topo, obs=obs)
        for s in ("A", "B"):
            net.add_node(s, cores=2)
        return sim, net

    def test_layer_installed_only_when_slos_configured(self):
        """The transport observes when anything does: SLOs alone suffice."""
        _, plain = make_net()
        assert plain._observed is None
        _, net = self.make_slo_net()
        assert net._observed == {}
        _, full = self.make_slo_net(enabled=True)
        assert full._observed == {}

    def test_every_retry_attempt_is_one_sli_event(self):
        sim, net = self.make_slo_net()
        FlakyService(net, "B", failures=2)
        policy = RetryPolicy(attempts=4, base_delay=0.5)

        def client():
            value = yield from net.call("A", "B", "flaky", "work",
                                        retry=policy)
            return value

        proc = sim.process(client())
        sim.run()
        assert proc.value == "ok after 3"
        engine = net.obs.slo
        # server view: three pipeline passes, two of them bad
        attempts = engine.status("attempts")
        assert (attempts.total, attempts.bad) == (3, 2)
        # client view: the one call succeeded after retries
        calls = engine.status("calls")
        assert (calls.total, calls.bad) == (1, 0)

    def test_failed_call_records_bad_at_both_levels(self):
        sim, net = self.make_slo_net()
        FlakyService(net, "B", failures=10, error=ValueError)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work")
            except ValueError:
                return "raised"

        proc = sim.process(client())
        sim.run()
        assert proc.value == "raised"
        engine = net.obs.slo
        assert (engine.status("attempts").total,
                engine.status("attempts").bad) == (1, 1)
        assert (engine.status("calls").total,
                engine.status("calls").bad) == (1, 1)

    def test_unmatched_endpoint_records_nothing(self):
        sim, net = self.make_slo_net()
        EchoService(net, "B")

        def client():
            yield from net.call("A", "B", "echo", "echo", payload="x")

        sim.process(client())
        sim.run()
        engine = net.obs.slo
        assert engine.status("attempts").total == 0
        assert engine.status("calls").total == 0


class TestDispatchCounters:
    def test_success_and_failure_counted_separately(self):
        sim, net = make_net()
        svc = EchoService(net, "B")

        def client():
            yield from net.call("A", "B", "echo", "echo", payload="x")
            try:
                yield from net.call("A", "B", "echo", "fail")
            except RuntimeError:
                pass

        sim.process(client())
        sim.run()
        assert svc.requests_handled == 1
        assert svc.requests_failed == 1

    def test_inflight_gauge_tracked_without_observability(self):
        sim, net = make_net()
        SlowService(net, "B", delay=2.0)
        seen = []

        def watcher():
            yield sim.timeout(1.0)
            seen.append(net.node("B").inflight_rpcs)

        def client():
            yield from net.call("A", "B", "slow", "work")

        sim.process(client())
        sim.process(watcher())
        sim.run()
        assert seen == [1]
        assert net.node("B").inflight_rpcs == 0
