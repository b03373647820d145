"""Node runtimes and the RPC transport primitive.

A :class:`Network` binds a :class:`~repro.net.topology.Topology` to a
simulator: every site gets a :class:`NodeRuntime` (CPU + registered
services + online flag), and processes anywhere in the model invoke
remote operations through ``yield from network.call(...)``.

Every attempt of a call runs through one *transport* stage, which
charges, in order: client marshalling CPU, security handshake latency,
request transmission (propagation + size/bandwidth), server-side
crypto + unmarshalling CPU, the service handler itself (which typically
executes on the server CPU), and the response transmission back.  This
is the cost model every experiment in the paper's evaluation rides on.
When the VO observes (tracer and metrics on, or SLOs declared) the same
stage wraps the attempt in an ``rpc:`` span, counts it in the
per-endpoint ``rpc.*`` metrics and records its attempt-level SLI; with
nothing observed that costs one attribute check.  A :class:`RetryPolicy`
passed to :meth:`Network.call` re-runs the stage per attempt.  The
per-attempt deadline is a number (``call``'s ``timeout``, else the
policy's ``per_try_timeout``) and part of the same stage: one
cancellable timeout on the caller's own process, armed on entry and
cancelled on every exit but its own expiry (nothing left on the agenda
afterwards).  Each CPU leg claims its core in the stage's own frame, so
a resume re-enters one frame between the caller and the event it waits
on.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.faults import FaultPlane, FaultsConfig
from repro.invariants import enlist
from repro.net.interceptors import Overloaded, RemoteError, RetryPolicy, RpcTimeout
from repro.net.message import Message, Response
from repro.net.topology import Topology
from repro.net.transport import SecurityPolicy
from repro.obs import Observability
from repro.obs import disabled as _disabled_observability
from repro.obs.slo import CALL as SLO_CALL_LEVEL
from repro.obs.trace import SPAN_NAMES, TraceContext
from repro.simkernel import CPU, Simulator
from repro.simkernel.errors import Interrupt, OfflineError, SimulationError
from repro.simkernel.primitives import Periodic


class ServiceNotFound(SimulationError):
    """No service with the requested name is deployed on the target node."""


class _Endpoint:
    """The instruments the transport stage observes one endpoint with.

    The span names are the shared :data:`SPAN_NAMES` strings.  The calls
    counter and latency histogram are resolved at the endpoint's first
    finished attempt, so no endpoint is exported before one has finished.
    """

    __slots__ = ("rpc", "serve", "calls", "latency")

    def __init__(self, endpoint: str) -> None:
        self.rpc = SPAN_NAMES["rpc", endpoint]
        self.serve = SPAN_NAMES["serve", endpoint]
        self.calls = self.latency = None


class NodeRuntime:
    """Per-site execution context: CPU, services and planes, liveness."""

    def __init__(self, network: "Network", name: str, cpu: CPU) -> None:
        self.network = network
        self.name = name
        self.cpu = cpu
        self.services: Dict[str, Any] = {}
        #: the site's parts (its services, plus any other plane that
        #: enlists itself), in construction order: what a walk over the
        #: site's loops or state clauses iterates
        self.planes: List[Any] = []
        self.online = True
        # traffic counters (for reports and tests)
        self.messages_in = self.messages_out = self.bytes_in = self.bytes_out = 0
        #: RPCs currently being served on this node (always maintained:
        #: admission control and the observability gauge both read it)
        self.inflight_rpcs = 0

    def service(self, name: str):
        """Look up a deployed service by name."""
        try:
            return self.services[name]
        except KeyError:
            raise ServiceNotFound(f"service {name!r} not found on node {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "OFFLINE"
        return f"<NodeRuntime {self.name} [{state}] services={sorted(self.services)}>"


class Network:
    """The simulated WAN plus per-node runtimes and RPC: one world, what
    :meth:`stop` ends and :func:`repro.invariants.audit` judges.

    Parameters
    ----------
    sim, topology:
        Simulator and static topology.
    security:
        Default :class:`SecurityPolicy` applied to calls that do not
        override it.
    marshal_cpu_per_kb:
        Serialization/deserialization CPU demand per kilobyte, charged
        at both endpoints (models SOAP/XML processing in GT4).
    connect_fail_delay:
        Time a caller loses discovering that the target is offline
        (connection timeout).
    contention:
        When true, concurrent transmissions crossing the same link
        share its bandwidth (snapshot fair-share approximation: a
        transfer starting while N others are active on its bottleneck
        path runs at bandwidth/(N+1)).  Off by default: the paper's
        experiments never saturate links, and the calibrated timings
        assume dedicated paths.
    obs:
        The VO's :class:`~repro.obs.Observability` bundle.  When
        enabled, every RPC is wrapped in client/server spans, the
        envelope carries trace-context metadata, and per-endpoint
        latency histograms and call counters are recorded; declared
        SLOs get one SLI per attempt and one per call.  Defaults to a
        disabled instance (one attribute check per call).
    faults:
        The VO's fault scenario: the network builds the one
        :class:`~repro.faults.FaultPlane` from it.  When enabled, the
        transport stage draws a link fault (loss, partitions) before
        anything else and the dispatch step applies per-service error
        rules.  Defaults to ``FaultsConfig.NONE`` (a disabled plane).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        security: Optional[SecurityPolicy] = None,
        marshal_cpu_per_kb: float = 0.0002,
        connect_fail_delay: float = 1.0,
        contention: bool = False,
        obs: Optional[Observability] = None,
        faults: FaultsConfig = FaultsConfig.NONE,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.security = security or SecurityPolicy.http()
        self.obs = obs if obs is not None else _disabled_observability()
        self.obs.bind(sim)
        self.faults = FaultPlane(self, faults)
        self.marshal_cpu_per_kb = marshal_cpu_per_kb
        self.connect_fail_delay = connect_fail_delay
        self.contention = contention
        self._link_active: Dict[tuple, int] = {}
        self.nodes: Dict[str, NodeRuntime] = {}
        self.total_messages = 0
        self.total_bytes = 0
        #: retry-loop attempts beyond the first, across all calls
        self.retries_total = 0
        #: endpoint -> :class:`_Endpoint` of the observing transport
        #: stage; ``None`` when nothing observes (tracer and metrics
        #: off, no SLOs), which is all the bare stage checks
        self._observed: Optional[Dict[str, _Endpoint]] = (
            {} if self.obs.enabled or self.obs.slo is not None else None)
        #: world-level planes (a load driver enlists itself): their
        #: loops join :meth:`background` and the audit reads their clauses
        self.planes: List[Any] = []
        #: set by :meth:`stop`: the audit's shutdown clauses now apply
        self.stopped = False
        enlist(self)  # to the open audit scope, if any

    # -- node management ---------------------------------------------------

    def add_node(self, name: str, cores: int = 2, speed: float = 1.0) -> NodeRuntime:
        """Create the runtime for site ``name`` (adds it to the topology)."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        if name not in self.topology:
            self.topology.add_site(name)
        runtime = NodeRuntime(self, name, CPU(self.sim, cores=cores, speed=speed))
        self.nodes[name] = runtime
        return runtime

    def node(self, name: str) -> NodeRuntime:
        """Runtime for site ``name``."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ValueError(f"unknown node {name!r}")

    def register_service(self, service) -> None:
        """Deploy ``service`` (must expose .name and .node_name)."""
        runtime = self.node(service.node_name)
        if service.name in runtime.services:
            raise ValueError(
                f"service {service.name!r} already deployed on {service.node_name!r}"
            )
        runtime.services[service.name] = service
        runtime.planes.append(service)

    def is_online(self, name: str) -> bool:
        """Liveness of site ``name``."""
        return self.node(name).online

    # -- shutdown ------------------------------------------------------------

    def background(self) -> List[Periodic]:
        """Every loop the world can run: the SLO evaluator, the metrics
        recorder, each node's planes in reverse construction order, then
        the world-level planes (the fault plane's outages are finite
        processes, not loops)."""
        slo = self.obs.slo
        loops = [None if slo is None else slo.evaluator, self.obs.recorder]
        loops += [loop for node in self.nodes.values()
                  for plane in reversed(node.planes) for loop in plane.loops()]
        loops += [loop for plane in self.planes for loop in plane.loops()]
        return [loop for loop in loops if loop is not None]

    def stop(self) -> None:
        """Stop every loop: once ``sim.run()`` drains the work in flight,
        the agenda is empty, and a restart revives nothing a crash stopped."""
        self.stopped = True
        self.faults.held.clear()
        for loop in self.background():
            loop.stop()

    # -- transmission ----------------------------------------------------------

    def _claim(self, edges: Tuple[Tuple[str, str], ...], bandwidth: float) -> float:
        """Claim ``edges``: ``bandwidth`` / (1 + the busiest one's prior count)."""
        active = self._link_active
        busiest = 0
        for edge in edges:
            count = active.get(edge, 0)
            if count > busiest:
                busiest = count
            active[edge] = count + 1
        return bandwidth / (busiest + 1)

    def _release(self, edges: Tuple[Tuple[str, str], ...]) -> None:
        """Undo :meth:`_claim` on ``edges``."""
        active = self._link_active
        for edge in edges:
            count = active[edge] - 1
            if count:
                active[edge] = count
            else:
                del active[edge]

    # -- RPC -----------------------------------------------------------------

    def call(
        self,
        src: str,
        dst: str,
        service: str,
        method: str,
        payload: Any = None,
        size: int = 0,
        security: Optional[SecurityPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Sub-generator performing one remote call; yields the result.

        Use as ``value = yield from network.call(...)``.  Raises
        :class:`OfflineError` when either endpoint is down,
        :class:`ServiceNotFound` for unknown services, and re-raises
        application exceptions from the remote handler.  ``timeout``
        bounds each attempt (:class:`RpcTimeout` when it passes first)
        and overrides the ``retry`` policy's ``per_try_timeout``.  With
        a ``retry`` policy the transport stage is re-run per attempt
        (transient errors back off and retry within the deadline budget).

        Every call takes the same route: retry loop → transport, the
        retry loop present only when there is something to retry or a
        total budget to keep.  The per-attempt deadline is part of the
        transport stage, so a single-attempt call, with or without a
        deadline, is that one generator, returned as is.  The outermost
        stage also records the call-level SLI (one event per
        client-visible outcome, after the attempt-level events the
        transport records).
        """
        if retry is not None and retry.engaged:
            if retry.attempts != 1 or retry.deadline is not None:
                return self._call_with_policy(src, dst, service, method, payload,
                                              size, security, retry, timeout)
            # nothing to retry, no total budget: the per-try deadline
            # is all that is left of the policy
            if timeout is None:
                timeout = retry.per_try_timeout
        return self._transport(src, dst, service, method, payload, size,
                               security, timeout, self.obs.slo)

    # -- retry loop ------------------------------------------------------------

    def _call_with_policy(self, src: str, dst: str, service: str, method: str,
                          payload: Any, size: int,
                          security: Optional[SecurityPolicy],
                          policy: RetryPolicy, timeout: Optional[float]) -> Generator:
        """Run the transport under ``policy`` (attempts, timeouts,
        backoff); ``timeout``, when given, is the per-attempt one."""
        sim = self.sim
        start = sim.now
        endpoint = f"{service}.{method}"
        jitter_key = f"retry:{src}:{endpoint}"
        last_error: Optional[BaseException] = None
        ok = False
        if timeout is None:
            timeout = policy.per_try_timeout
        try:
            for attempt in range(1, policy.attempts + 1):
                per_try = timeout
                if policy.deadline is not None:
                    remaining = policy.deadline - (sim.now - start)
                    if remaining <= 0:
                        break
                    per_try = remaining if per_try is None else min(per_try, remaining)
                try:
                    value = yield from self._transport(
                        src, dst, service, method, payload, size, security, per_try)
                    ok = True
                    return value
                except BaseException as error:
                    last_error = error
                    if attempt >= policy.attempts or not policy.retryable(error):
                        raise
                    delay = policy.backoff_delay(attempt, rng=sim.rng, key=jitter_key)
                    if (policy.deadline is not None
                            and (sim.now - start) + delay >= policy.deadline):
                        raise
                    self.retries_total += 1
                    if self.obs.enabled:
                        self.obs.metrics.counter("rpc.retries", endpoint=endpoint).inc()
                    if delay > 0:
                        yield sim.timeout(delay)
            # deadline budget exhausted before the attempt budget (a
            # built policy has attempts >= 1 and a positive deadline, so
            # the first attempt always runs)
            raise last_error
        finally:
            if self.obs.slo is not None:
                self.obs.slo.record(endpoint, start, sim.now, ok,
                                    level=SLO_CALL_LEVEL)

    # -- terminal transport stage ------------------------------------------------

    def _transport(self, src: str, dst: str, service: str, method: str,
                   payload: Any, size: int, security: Optional[SecurityPolicy],
                   timeout: Optional[float] = None, call_slo=None) -> Generator:
        """Marshalling, security, wire transfer and dispatch for one attempt.

        The one stage of every route through :meth:`call`.  Kept as one
        flat generator, since every frame between a process and its event
        is re-entered per resume: the CPU legs claim in place
        (:meth:`CPU.claim`), and a ``timeout`` arms the deadline here, on
        the caller's process, with the timeout itself as the interrupt's
        cause.  Exactly that :class:`Interrupt` becomes :class:`RpcTimeout`;
        an enclosing deadline or an outsider's interrupt passes through,
        so nested deadlines compose.  When the VO observes, it opens the
        ``rpc:`` span, and one ``finally`` records, in order, the attempt
        SLI, the ``rpc.calls`` / ``rpc.errors`` / ``rpc.shed`` /
        ``rpc.latency`` metrics and the span's ``outcome`` and close; then
        it cancels the deadline (on every exit but expiry) and, with
        ``call_slo`` (the attempt is the whole call), records the call
        SLI.  The fault plane's checks sit mid-route: a lost or
        partitioned link behaves like an unreachable target (the caller
        burns the connection timeout, then sees :class:`OfflineError`),
        a service fault fails the dispatch.
        """
        sim = self.sim
        obs = self.obs
        observed = self._observed
        started = sim._now
        span = error = held = claim = deadline = None
        if timeout is not None:
            deadline = sim.timeout(timeout)
            deadline.callbacks.append(sim._active_process.interrupt)
        if observed is not None:
            endpoint = f"{service}.{method}"
            if obs.enabled:
                try:
                    points = observed[endpoint]
                except KeyError:
                    points = observed[endpoint] = _Endpoint(endpoint)
                span = obs.tracer.span(points.rpc, src=src, dst=dst)
        try:
            faults = self.faults if self.faults.enabled else None
            if faults is not None:
                dropped = faults.link_fault(src, dst)
                if dropped is not None:
                    yield sim.timeout(self.connect_fail_delay)
                    raise dropped
            policy = security if security is not None else self.security
            # https only: under http every security cost is 0.0, so skip the calls
            secure = policy.enabled
            src_node = self.node(src)
            dst_node = self.node(dst)
            if not src_node.online:
                raise OfflineError(f"source node {src!r} is offline")

            message = Message(src=src, dst=dst, service=service, method=method,
                              payload=payload, size=size, secure=secure)
            if span is not None:
                # the caller's span identity rides the envelope (the
                # simulated ``traceparent`` header)
                message.trace_ctx = TraceContext(span.trace_id, span.span_id)
            msize = message.size
            contended = self.contention and src != dst
            if contended:
                latency, bandwidth, edges = self.topology.routes[src, dst]
            else:
                latency, bandwidth = self.topology.path_metrics(src, dst)

            # client-side marshalling + crypto, co-scheduled as one CPU
            # grant: they belong to the same send path, and splitting
            # them would change FCFS ordering under load
            demand = self.marshal_cpu_per_kb * (msize / 1024.0)
            if secure:
                demand += policy.client_cpu_demand(msize)
            if demand > 0:  # each CPU leg: claim, wait for completion, release
                cpu = src_node.cpu
                claim = cpu.claim(demand)
                cpu.release((yield claim))
                claim = None

            # transport security handshake (TLS round trips)
            if secure:
                handshake = policy.handshake_latency(2.0 * latency)
                if handshake > 0:
                    yield sim.timeout(handshake)

            # request transmission (a contended leg holds its links on the wire)
            if contended:
                bandwidth = self._claim(edges, bandwidth)
                held = edges
            yield sim.timeout(latency + msize / bandwidth)
            if held is not None:
                self._release(held)
                held = None
            self.total_messages += 1
            self.total_bytes += msize
            src_node.messages_out += 1
            src_node.bytes_out += msize

            if not dst_node.online:
                # the connection attempt times out
                yield sim.timeout(self.connect_fail_delay)
                raise OfflineError(f"target node {dst!r} is offline")

            dst_node.messages_in += 1
            dst_node.bytes_in += msize

            # server-side crypto + unmarshalling (one co-scheduled grant)
            demand = self.marshal_cpu_per_kb * (msize / 1024.0)
            if secure:
                demand += policy.server_cpu_demand(msize)
            if demand > 0:
                cpu = dst_node.cpu
                claim = cpu.claim(demand)
                cpu.release((yield claim))
                claim = None

            # dispatch: fault rules, inflight gauge, server span.
            # Handlers run inline in the caller's process, so the server
            # span nests under the ``rpc:`` span by itself.
            handler = dst_node.service(service)
            if faults is not None:
                injected = faults.service_fault(service, method, dst)
                if injected is not None:
                    raise injected
            dst_node.inflight_rpcs += 1
            try:
                if span is not None:
                    with obs.tracer.span(points.serve, site=dst):
                        result = yield from handler.dispatch(method, message)
                else:
                    result = yield from handler.dispatch(method, message)
            finally:
                dst_node.inflight_rpcs -= 1
            response = result if isinstance(result, Response) else Response(value=result)

            # crypto on the response body + the return transmission
            rsize = response.size
            if secure:
                resp_crypto = policy.server_cpu_demand(rsize) - policy.server_cpu_demand(0)
                if resp_crypto > 0:
                    cpu = dst_node.cpu
                    claim = cpu.claim(resp_crypto)
                    cpu.release((yield claim))
                    claim = None
            if contended:
                latency, bandwidth, edges = self.topology.routes[dst, src]
                bandwidth = self._claim(edges, bandwidth)
                held = edges
            else:
                latency, bandwidth = self.topology.path_metrics(dst, src)
            yield sim.timeout(latency + rsize / bandwidth)
            self.total_messages += 1
            self.total_bytes += rsize
            dst_node.messages_out += 1
            dst_node.bytes_out += rsize
            src_node.messages_in += 1
            src_node.bytes_in += rsize
            return response.value
        except BaseException as exc:
            error = exc
            raise
        finally:
            if claim is not None:  # interrupted at a CPU
                cpu.withdraw(claim)
            if held is not None:  # the reply leg's, or one interrupted on the wire
                self._release(held)
            if observed is not None:
                ended = sim._now
                if obs.slo is not None:
                    obs.slo.record(endpoint, started, ended, error is None)
                if span is not None:
                    metrics = obs.metrics
                    if points.calls is None:  # the endpoint's first exit
                        points.calls = metrics.counter("rpc.calls", endpoint=endpoint)
                        points.latency = metrics.histogram("rpc.latency",
                                                           endpoint=endpoint)
                    points.calls.inc()
                    if error is not None:
                        metrics.counter("rpc.errors", endpoint=endpoint).inc()
                        # only an Overloaded from this dispatch carries
                        # this attempt's envelope
                        if type(error) is Overloaded and error.request is message:
                            metrics.counter("rpc.shed", service=service,
                                            node=dst, op=method).inc()
                    points.latency.observe(ended - started)
                    # an open span's attributes are its dict
                    span._attrs["outcome"] = (
                        "ok" if error is None else type(error).__name__)
                    span.__exit__(None, error, None)
            expired = False
            if deadline is not None:
                if sim.cancel(deadline):
                    # disarmed, so nothing else holds it (a deadline
                    # that fired is its Interrupt's cause)
                    sim._recycle(deadline)
                else:
                    expired = (isinstance(error, Interrupt)
                               and error.cause is deadline)
            if call_slo is not None:
                call_slo.record(endpoint, started, sim._now, error is None,
                                level=SLO_CALL_LEVEL)
            # the error's traceback holds this frame: drop the reference
            # back, or each failed attempt leaves a cycle for the collector
            error = None
            if expired:
                raise RpcTimeout(
                    f"{service}.{method} on {dst!r} timed out after {timeout}s"
                ) from None


__all__ = [
    "Network",
    "NodeRuntime",
    "RemoteError",
    "RetryPolicy",
    "RpcTimeout",
    "ServiceNotFound",
]
