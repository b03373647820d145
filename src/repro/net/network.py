"""Node runtimes and the RPC transport primitive.

A :class:`Network` binds a :class:`~repro.net.topology.Topology` to a
simulator: every site gets a :class:`NodeRuntime` (CPU + registered
services + online flag), and processes anywhere in the model invoke
remote operations through ``yield from network.call(...)``.

Calls flow through the layer pipeline of :mod:`repro.net.interceptors`
(trace, metrics, SLO hooks — each installed only when its subsystem is
on) into the terminal *transport* stage, which charges, in order:
client marshalling CPU, security handshake latency, request
transmission (propagation + size/bandwidth), server-side crypto +
unmarshalling CPU, the service handler itself (which typically
executes on the server CPU), and the response transmission back.  This
is the cost model every experiment in the paper's evaluation rides on.
A :class:`RetryPolicy` passed to :meth:`Network.call` re-runs the whole
pipeline per attempt; a per-attempt deadline is one cancellable timeout
on the caller's own process (nothing left on the agenda afterwards).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.net.interceptors import (
    CallContext,
    MetricsLayer,
    RemoteError,
    RetryPolicy,
    RpcTimeout,
    SLOLayer,
    TraceLayer,
    compose,
)
from repro.net.message import Message, Response
from repro.net.topology import Topology
from repro.net.transport import SecurityPolicy
from repro.obs import Observability
from repro.obs import disabled as _disabled_observability
from repro.obs.slo import CALL as SLO_CALL_LEVEL
from repro.simkernel import CPU, Simulator
from repro.simkernel.errors import Interrupt, OfflineError, SimulationError


class ServiceNotFound(SimulationError):
    """No service with the requested name is deployed on the target node."""


class NodeRuntime:
    """Per-site execution context: CPU, services, liveness."""

    def __init__(self, network: "Network", name: str, cpu: CPU) -> None:
        self.network = network
        self.name = name
        self.cpu = cpu
        self.services: Dict[str, Any] = {}
        self.online = True
        # traffic counters (for reports and tests)
        self.messages_in = 0
        self.messages_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
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
    """The simulated WAN plus per-node runtimes and RPC.

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
        latency histograms and call counters are recorded.  Defaults
        to a disabled instance (one attribute check per call).
    faults:
        The VO's :class:`~repro.faults.FaultPlane`.  When enabled, the
        transport stage draws a link fault (loss, partitions) before
        anything else and the dispatch step applies per-service error
        rules.  Defaults to a disabled plane.
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
        faults=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.security = security or SecurityPolicy.http()
        self.obs = obs if obs is not None else _disabled_observability()
        self.obs.bind(sim)
        #: health registry shared with ``Service.dispatch`` (may be None)
        self.health = self.obs.health
        if faults is None:
            # deferred import: repro.faults itself imports the pipeline
            from repro.faults import FaultPlane

            faults = FaultPlane(sim)
        self.faults = faults.bind(self)
        self.marshal_cpu_per_kb = marshal_cpu_per_kb
        self.connect_fail_delay = connect_fail_delay
        self.contention = contention
        self._link_active: Dict[tuple, int] = {}
        self.nodes: Dict[str, NodeRuntime] = {}
        self.total_messages = 0
        self.total_bytes = 0
        #: retry-layer attempts beyond the first, across all calls
        self.retries_total = 0
        self.interceptors: list = []
        self.rebuild_pipeline()

    def rebuild_pipeline(self) -> None:
        """(Re)compose the layer hooks around the transport stage.

        Layers are installed only when their subsystem is on, so the
        all-off default collapses to the bare transport — the same
        event sequence as the pre-pipeline code, byte-for-byte.
        """
        layers = []
        if self.obs.enabled:
            layers.append(TraceLayer(self))
            layers.append(MetricsLayer(self))
        if self.obs.slo is not None:
            # inside trace/metrics, outside the transport's fault checks:
            # each SLI event also sees the faults injected below it
            layers.append(SLOLayer(self))
        self.interceptors = layers
        # an empty layer list composes to the transport stage itself
        self._invoke = compose(layers, self._transport)

    # -- node management ---------------------------------------------------

    def add_node(self, name: str, cores: int = 2, speed: float = 1.0) -> NodeRuntime:
        """Create the runtime for site ``name`` (adds it to the topology)."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        if name not in self.topology.sites():
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

    def set_online(self, name: str, online: bool) -> None:
        """Fail or recover a site; offline nodes refuse all calls."""
        self.node(name).online = online

    def is_online(self, name: str) -> bool:
        """Liveness of site ``name``."""
        return self.node(name).online

    # -- transmission ----------------------------------------------------------

    def _transmit(self, src: str, dst: str, size: int) -> Generator:
        """Move ``size`` bytes: propagation + (possibly shared) bandwidth."""
        latency, bandwidth = self.topology.path_metrics(src, dst)
        if not self.contention or src == dst:
            yield self.sim.timeout(latency + size / bandwidth)
            return
        edges = self.topology.path_edges(src, dst)
        active = max((self._link_active.get(e, 0) for e in edges), default=0)
        effective = bandwidth / (active + 1)
        for edge in edges:
            self._link_active[edge] = self._link_active.get(edge, 0) + 1
        try:
            yield self.sim.timeout(latency + size / effective)
        finally:
            for edge in edges:
                self._link_active[edge] -= 1
                if self._link_active[edge] <= 0:
                    del self._link_active[edge]

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
    ) -> Generator:
        """Sub-generator performing one remote call; yields the result.

        Use as ``value = yield from network.call(...)``.  Raises
        :class:`OfflineError` when either endpoint is down,
        :class:`ServiceNotFound` for unknown services, and re-raises
        application exceptions from the remote handler.  With a
        ``retry`` policy the whole pipeline is re-run per attempt
        (per-attempt timeouts raise :class:`RpcTimeout`; transient
        errors back off and retry within the deadline budget).

        Every call takes the same route: context → retry loop →
        per-attempt deadline → layer pipeline → transport, each stage
        present only when it has work to do.  The generator of the
        outermost such stage is returned as is, so a stage that is off
        costs the caller no frame; that outermost stage also records
        the call-level SLI (one event per client-visible outcome, after
        the attempt-level events of the :class:`SLOLayer` inside it).
        """
        ctx = CallContext(src, dst, service, method, payload, size, security)
        if retry is None or not retry.engaged:
            if self.obs.slo is None:
                return self._invoke(ctx)
            return self._record_call_sli(ctx)
        if retry.attempts == 1 and retry.deadline is None:
            # nothing to retry, no total budget: the per-try deadline
            # is all that is left of the policy
            return self._attempt_with_deadline(ctx, retry.per_try_timeout,
                                               self.obs.slo)
        return self._call_with_policy(ctx, retry)

    def _record_call_sli(self, ctx: CallContext) -> Generator:
        """Call-level SLI around the bare route (no stage of its own)."""
        started = self.sim._now
        ok = False
        try:
            value = yield from self._invoke(ctx)
            ok = True
        finally:
            self.obs.slo.record(ctx.endpoint, started, self.sim._now, ok,
                                level=SLO_CALL_LEVEL)
        return value

    # -- retry layer -----------------------------------------------------------

    def _call_with_policy(self, ctx: CallContext, policy: RetryPolicy) -> Generator:
        """Run the pipeline under ``policy`` (attempts, timeouts, backoff)."""
        sim = self.sim
        start = sim.now
        jitter_key = f"retry:{ctx.src}:{ctx.endpoint}"
        last_error: Optional[BaseException] = None
        ok = False
        try:
            for attempt in range(1, policy.attempts + 1):
                ctx.attempt = attempt
                remaining = None
                if policy.deadline is not None:
                    remaining = policy.deadline - (sim.now - start)
                    if remaining <= 0:
                        break
                per_try = policy.per_try_timeout
                if per_try is None:
                    per_try = remaining
                elif remaining is not None:
                    per_try = min(per_try, remaining)
                try:
                    if per_try is None:
                        value = yield from self._invoke(ctx)
                    else:
                        value = yield from self._attempt_with_deadline(ctx, per_try)
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
                        self.obs.metrics.counter(
                            "rpc.retries", endpoint=ctx.endpoint
                        ).inc()
                    if delay > 0:
                        yield sim.timeout(delay)
            # deadline budget exhausted before the attempt budget
            assert last_error is not None
            raise last_error
        finally:
            if self.obs.slo is not None:
                self.obs.slo.record(ctx.endpoint, start, sim.now, ok,
                                    level=SLO_CALL_LEVEL)

    def _attempt_with_deadline(self, ctx: CallContext, timeout: float,
                               call_slo=None) -> Generator:
        """One pipeline attempt under a deadline, inline in the caller's process.

        The deadline is one timeout whose callback interrupts this
        process with the timeout itself as the cause.  Exactly that
        :class:`Interrupt` becomes :class:`RpcTimeout`; an enclosing
        call's deadline or an outsider's interrupt passes through
        untouched, so nested deadlines compose.  Every other exit
        cancels the timeout: nothing stays on the agenda.  ``call_slo``
        is the SLO engine when this attempt is the whole call (its
        outcome is then the call-level SLI), else ``None``.
        """
        sim = self.sim
        started = sim._now
        ok = False
        proc = sim.active_process
        deadline = sim.timeout(timeout)
        deadline.callbacks.append(proc.interrupt)
        try:
            value = yield from self._invoke(ctx)
            ok = True
        except Interrupt as interrupt:
            if interrupt.cause is not deadline:
                raise
            raise RpcTimeout(
                f"{ctx.endpoint} on {ctx.dst!r} timed out after {timeout}s"
            ) from None
        finally:
            sim.cancel(deadline)
            if call_slo is not None:
                call_slo.record(ctx.endpoint, started, sim._now, ok,
                                level=SLO_CALL_LEVEL)
        return value

    # -- terminal transport stage ------------------------------------------------

    def _transport(self, ctx: CallContext) -> Generator:
        """Marshalling, security, wire transfer and dispatch for one attempt.

        The terminal stage of every route through :meth:`call` — bare,
        under a retry policy, or inside the layer pipeline.  Kept as
        one flat generator: every frame between a process and the event
        it waits on is re-entered on each resume.  The fault plane's
        two checks live here because they must wait or sit mid-route: a
        lost or partitioned link behaves like an unreachable target
        (the caller burns the connection timeout, then sees
        :class:`OfflineError`), a service fault fails the dispatch.
        """
        sim = self.sim
        obs = self.obs
        src, dst, service, method = ctx.src, ctx.dst, ctx.service, ctx.method
        faults = self.faults if self.faults.enabled else None
        if faults is not None:
            dropped = faults.link_fault(src, dst)
            if dropped is not None:
                yield sim.timeout(self.connect_fail_delay)
                raise dropped
        policy = ctx.security if ctx.security is not None else self.security
        src_node = self.node(src)
        dst_node = self.node(dst)
        if not src_node.online:
            raise OfflineError(f"source node {src!r} is offline")

        message = Message(
            src=src,
            dst=dst,
            service=service,
            method=method,
            payload=ctx.payload,
            size=ctx.size,
            secure=policy.enabled,
        )
        if obs.enabled:
            # inject the caller's span identity into the envelope (the
            # simulated ``traceparent`` header)
            message.trace_ctx = obs.tracer.current_context()
        msize = message.size
        latency, bandwidth = self.topology.path_metrics(src, dst)
        contended = self.contention and src != dst

        # client-side marshalling + crypto, co-scheduled as one CPU
        # grant: they belong to the same send path, and splitting them
        # would change FCFS ordering under load
        demand = self.marshal_cpu_per_kb * (msize / 1024.0)
        demand += policy.client_cpu_demand(msize)
        if demand > 0:
            yield from src_node.cpu.execute(demand)

        # transport security handshake (TLS round trips)
        handshake = policy.handshake_latency(2.0 * latency)
        if handshake > 0:
            yield sim.timeout(handshake)

        # request transmission
        if contended:
            yield from self._transmit(src, dst, msize)
        else:
            yield sim.timeout(latency + msize / bandwidth)
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
        demand += policy.server_cpu_demand(msize)
        if demand > 0:
            yield from dst_node.cpu.execute(demand)

        # dispatch: fault rules, inflight gauge, server span.  Handlers
        # run inline in the caller's process, so the server span nests
        # under the ``rpc:`` span by itself.
        handler = dst_node.service(service)
        if faults is not None:
            injected = faults.service_fault(ctx)
            if injected is not None:
                raise injected
        dst_node.inflight_rpcs += 1
        try:
            if obs.enabled:
                with obs.tracer.span("serve:" + ctx.endpoint, site=dst):
                    result = yield from handler.dispatch(method, message)
            else:
                result = yield from handler.dispatch(method, message)
        finally:
            dst_node.inflight_rpcs -= 1
        response = result if isinstance(result, Response) else Response(value=result)

        # crypto on the response body + the return transmission
        rsize = response.size
        resp_crypto = policy.server_cpu_demand(rsize) - policy.server_cpu_demand(0)
        if resp_crypto > 0:
            yield from dst_node.cpu.execute(resp_crypto)
        if contended:
            yield from self._transmit(dst, src, rsize)
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

    def call_with_timeout(
        self,
        src: str,
        dst: str,
        service: str,
        method: str,
        payload: Any = None,
        size: int = 0,
        timeout: float = 10.0,
        security: Optional[SecurityPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Like :meth:`call` but abandons the call after ``timeout``.

        Raises :class:`RpcTimeout` when the deadline passes first.
        Sugar for ``call(..., retry=RetryPolicy.single(timeout))``; a
        ``retry`` policy without a per-attempt timeout inherits
        ``timeout`` per attempt.
        """
        policy = retry if retry is not None else RetryPolicy.single(timeout)
        return self.call(
            src, dst, service, method, payload=payload, size=size,
            security=security, retry=policy.with_per_try(timeout),
        )


__all__ = [
    "CallContext",
    "Network",
    "NodeRuntime",
    "RemoteError",
    "RetryPolicy",
    "RpcTimeout",
    "ServiceNotFound",
]
