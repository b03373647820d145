"""Property tests for the shared retry policy and RemoteError wrapping.

The retry engine is on the hot path of every resilient RPC, so its
backoff arithmetic must be boringly predictable: deterministic for a
given seed, monotone in the attempt number (up to the cap), and never
allowed to burn more than the declared deadline budget.  The schedule
properties are read off the real loop: ``Network.call(retry=policy)``
against an offline target, one ``rpc:`` span per attempt.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network, Topology
from repro.net.interceptors import Overloaded, RemoteError, RetryPolicy, RpcTimeout
from repro.obs import Observability
from repro.simkernel import Simulator
from repro.simkernel.errors import OfflineError


policies = st.builds(
    RetryPolicy,
    attempts=st.integers(min_value=1, max_value=8),
    base_delay=st.floats(min_value=0.0, max_value=30.0,
                         allow_nan=False, allow_infinity=False),
    multiplier=st.floats(min_value=1.0, max_value=4.0,
                         allow_nan=False, allow_infinity=False),
    backoff=st.sampled_from(["exponential", "linear"]),
    max_delay=st.floats(min_value=0.1, max_value=120.0,
                        allow_nan=False, allow_infinity=False),
    jitter=st.floats(min_value=0.0, max_value=1.0,
                     allow_nan=False, allow_infinity=False),
    deadline=st.one_of(
        st.none(),
        st.floats(min_value=0.1, max_value=300.0,
                  allow_nan=False, allow_infinity=False),
    ),
)


def attempt_instants(policy, seed):
    """``(start, end)`` of every attempt of one call under ``policy`` to
    an offline target, plus when the call gave up."""
    sim = Simulator(seed=seed)
    net = Network(sim, Topology.full_mesh(("A", "B"), latency=0.005, bandwidth=1e7),
                  obs=Observability())
    for site in ("A", "B"):
        net.add_node(site, cores=2)
    net.nodes["B"].online = False

    def client():
        try:
            yield from net.call("A", "B", "echo", "echo", retry=policy)
        except (OfflineError, RpcTimeout):
            return sim.now

    proc = sim.process(client())
    sim.run()
    spans = net.obs.tracer.find("rpc:")
    return [(span.start, span.end) for span in spans], proc.value


def sleeps(attempts):
    """The backoff sleeps between consecutive attempts."""
    return [nxt[0] - prev[1] for prev, nxt in zip(attempts, attempts[1:])]


class TestBackoffProperties:
    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=150)
    def test_schedule_deterministic_per_seed(self, policy, seed):
        assert attempt_instants(policy, seed) == attempt_instants(policy, seed)

    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=150)
    def test_schedule_never_exceeds_deadline(self, policy, seed):
        attempts, gave_up = attempt_instants(policy, seed)
        assert 1 <= len(attempts) <= policy.attempts
        if policy.deadline is not None:
            assert sum(sleeps(attempts)) <= policy.deadline
            assert gave_up - attempts[0][0] <= policy.deadline + 1e-9

    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=150)
    def test_delays_nonnegative_and_capped(self, policy, seed):
        attempts, _ = attempt_instants(policy, seed)
        for delay in sleeps(attempts):
            assert delay >= 0.0
            # jitter is a fraction of the (already capped) base value
            assert delay <= policy.max_delay * (1.0 + policy.jitter) + 1e-9

    @given(policy=policies)
    @settings(max_examples=100)
    def test_unjittered_delay_monotone_until_cap(self, policy):
        previous = 0.0
        for attempt in range(1, policy.attempts + 1):
            delay = policy.backoff_delay(attempt, rng=None)
            assert delay >= previous or delay == policy.max_delay
            previous = delay


class TestRetryableClassification:
    @given(attempts=st.integers(min_value=2, max_value=8))
    def test_transport_errors_always_retryable(self, attempts):
        policy = RetryPolicy(attempts=attempts)
        for error in (OfflineError("x"), RpcTimeout("x"), Overloaded("x")):
            assert policy.retryable(error)

    @given(attempts=st.integers(min_value=2, max_value=8))
    def test_plain_exceptions_not_retryable(self, attempts):
        policy = RetryPolicy(attempts=attempts)
        assert not policy.retryable(ValueError("x"))
        assert not policy.retryable(RuntimeError("x"))


class TestRemoteErrorProperties:
    @given(name=st.sampled_from(
        ["ValueError", "KeyError", "XmlParseError", "IndexMeltdown"]),
        text=st.text(min_size=0, max_size=40))
    def test_error_type_preserves_original_name(self, name, text):
        cause = type(name, (Exception,), {})(text)
        error = RemoteError(cause)
        assert error.error_type == name
        assert not error.transient

    @given(text=st.text(min_size=0, max_size=40))
    def test_transient_cause_makes_wrapper_transient(self, text):
        # ``transient`` is carried as an attribute on the cause
        # (transport errors are classified via TRANSIENT_ERRORS instead)
        assert RemoteError(Overloaded(text)).transient
        assert not RemoteError(ValueError(text)).transient
