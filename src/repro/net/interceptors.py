"""Composable RPC pipeline: call contexts, layer hooks, retry policies.

Every remote call in the reproduction flows through one pipeline
composed by :class:`~repro.net.network.Network`.  A *layer* is a pair
of plain hooks around the call — ``enter(ctx) -> state`` before it,
``exit(ctx, state, error)`` after it — and each owns exactly one
cross-cutting concern:

* :class:`TraceLayer` — wraps the call in an ``rpc:`` span;
* :class:`MetricsLayer` — per-endpoint call/error counters and latency
  histograms;
* :class:`SLOLayer` — one attempt-level SLI event per pipeline pass.

:func:`compose` folds any number of layers and the network's terminal
transport stage (marshalling, security costs, wire transfer, server
dispatch, and the fault plane's two checks) into ONE generator, so a
resumed call re-enters one pipeline frame however many layers are on.

Retry is layered *around* the pipeline rather than inside it: a
:class:`RetryPolicy` passed to ``Network.call`` re-runs the whole
pipeline per attempt (fresh envelope, fresh fault draws), exactly as a
client stack re-issues a failed request.

Layers are only installed when their subsystem is on, so the default
(observability off, no retry policy) is the bare transport — pinned by
the determinism fingerprints in :mod:`repro.perf`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.simkernel.errors import OfflineError, SimulationError


class RpcTimeout(SimulationError):
    """A remote call did not complete within its deadline."""


class Overloaded(SimulationError):
    """A service shed the request at admission (inflight bound hit).

    Transient by definition: the caller may retry after backing off.
    """

    transient = True


class RemoteError(Exception):
    """Wraps an application-level exception raised by a remote handler.

    The original exception travels as :attr:`cause`; its type name is
    preserved end-to-end via :attr:`error_type` (the simulated analogue
    of a SOAP fault carrying the server-side exception class).
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"remote handler failed: {cause!r}")
        self.cause = cause
        #: a transient cause makes the wrapper retryable too
        self.transient = bool(getattr(cause, "transient", False))

    @property
    def error_type(self) -> str:
        """Type name of the original server-side exception."""
        return type(self.cause).__name__


#: transport-level errors every retry policy treats as retryable
TRANSIENT_ERRORS: Tuple[type, ...] = (OfflineError, RpcTimeout, Overloaded)


class CallContext:
    """Mutable per-call state threaded through the layer pipeline."""

    __slots__ = ("src", "dst", "service", "method", "payload", "size",
                 "security", "attempt", "endpoint")

    def __init__(self, src: str, dst: str, service: str, method: str,
                 payload: Any = None, size: int = 0,
                 security: Any = None) -> None:
        self.src = src
        self.dst = dst
        self.service = service
        self.method = method
        self.payload = payload
        self.size = size
        self.security = security
        #: 1-based attempt number (bumped by the retry layer)
        self.attempt = 1
        #: ``service.method``, built once: every layer keys on it
        self.endpoint = f"{service}.{method}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CallContext {self.src}->{self.dst} {self.endpoint}"
                f" attempt={self.attempt}>")


class Layer:
    """One named layer of the RPC pipeline: a pair of plain hooks.

    ``enter`` runs before the call and returns whatever ``exit`` needs
    back; ``exit`` always runs once ``enter`` returned, with the
    exception that ended the call (``None`` on success).  Hooks never
    yield — anything that must wait belongs in the transport stage.
    """

    name = "layer"

    def enter(self, ctx: CallContext) -> Any:
        return None

    def exit(self, ctx: CallContext, state: Any,
             error: Optional[BaseException]) -> None:
        pass


class TraceLayer(Layer):
    """Wrap the call in an ``rpc:`` client span (observability on only)."""

    name = "trace"

    def __init__(self, network) -> None:
        self.tracer = network.obs.tracer

    def enter(self, ctx: CallContext):
        return self.tracer.span("rpc:" + ctx.endpoint, src=ctx.src, dst=ctx.dst)

    def exit(self, ctx: CallContext, span, error) -> None:
        span.attrs["outcome"] = "ok" if error is None else type(error).__name__
        span.__exit__(None, error, None)


class MetricsLayer(Layer):
    """Per-endpoint call/error counters + latency histogram."""

    name = "metrics"

    def __init__(self, network) -> None:
        self.sim = network.sim
        self.metrics = network.obs.metrics

    def enter(self, ctx: CallContext) -> float:
        return self.sim._now

    def exit(self, ctx: CallContext, started: float, error) -> None:
        metrics, endpoint = self.metrics, ctx.endpoint
        metrics.counter("rpc.calls", endpoint=endpoint).inc()
        if error is not None:
            metrics.counter("rpc.errors", endpoint=endpoint).inc()
        metrics.histogram("rpc.latency", endpoint=endpoint).observe(
            self.sim._now - started
        )


class SLOLayer(Layer):
    """Feed attempt-level request outcomes into the SLO engine.

    Sits *inside* the retry layer, so every pipeline pass — including
    each retry of a flaky call — is one service-level-indicator event:
    the server-side view of reliability.  The client-side (post-retry)
    view is recorded at the call level by the stage of ``Network.call``
    that owns the whole call.  Installed only when the VO declares SLOs.
    """

    name = "slo"

    def __init__(self, network) -> None:
        self.sim = network.sim
        self.engine = network.obs.slo

    def enter(self, ctx: CallContext) -> float:
        return self.sim._now

    def exit(self, ctx: CallContext, started: float, error) -> None:
        self.engine.record(ctx.endpoint, started, self.sim._now, error is None)


def compose(layers: Sequence[Layer],
            terminal: Callable[[CallContext], Generator]):
    """Fold ``layers`` around ``terminal`` into one generator function.

    Layers are entered outermost-first and exited innermost-first; a
    layer whose ``enter`` raised is not exited, the ones entered before
    it are.  No layers: the terminal itself, not a wrapper.
    """
    layers = tuple(layers)
    if not layers:
        return terminal

    def pipeline(ctx: CallContext) -> Generator:
        entered = []
        error = None
        try:
            for layer in layers:
                entered.append((layer, layer.enter(ctx)))
            return (yield from terminal(ctx))
        except BaseException as exc:
            error = exc
            raise
        finally:
            for layer, state in reversed(entered):
                layer.exit(ctx, state, error)

    return pipeline


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Shared retry/timeout policy for remote calls.

    One object describes everything a call site used to hand-roll:
    attempt count, per-attempt timeout, backoff shape, deterministic
    jitter and a total deadline budget.  ``RetryPolicy.single(t)`` is
    byte-identical to the legacy ``call_with_timeout(timeout=t)``.

    Attributes
    ----------
    attempts:
        Total tries (1 = no retry).
    per_try_timeout:
        Deadline per attempt; ``None`` waits indefinitely (bounded by
        ``deadline`` if set).
    base_delay / multiplier / backoff / max_delay:
        Sleep before retry *n* is ``base_delay * multiplier**(n-1)``
        (exponential) or ``base_delay * n`` (linear), capped at
        ``max_delay``.
    jitter:
        Extra uniform sleep in ``[0, jitter * delay)`` drawn from a
        named RNG stream — deterministic per seed, never perturbing
        other streams.
    deadline:
        Total budget across attempts and backoff sleeps.  Once spent,
        the last error is raised; planned sleeps never overrun it.
    retry_on:
        Extra exception types to retry beyond the transport-transient
        set (:data:`TRANSIENT_ERRORS` plus anything flagged
        ``transient``).
    """

    attempts: int = 1
    per_try_timeout: Optional[float] = None
    base_delay: float = 0.5
    multiplier: float = 2.0
    backoff: str = "exponential"
    max_delay: float = 60.0
    jitter: float = 0.0
    deadline: Optional[float] = None
    retry_on: Tuple[type, ...] = ()

    @classmethod
    def single(cls, timeout: float) -> "RetryPolicy":
        """One attempt with a deadline — the old ``call_with_timeout``."""
        return cls(attempts=1, per_try_timeout=timeout)

    @property
    def engaged(self) -> bool:
        """Whether the retry layer needs to run at all."""
        return (self.attempts > 1 or self.per_try_timeout is not None
                or self.deadline is not None)

    def with_per_try(self, timeout: Optional[float]) -> "RetryPolicy":
        """Fill in a per-attempt timeout if the policy lacks one."""
        if timeout is None or self.per_try_timeout is not None:
            return self
        return dataclasses.replace(self, per_try_timeout=timeout)

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt under this policy."""
        if isinstance(error, TRANSIENT_ERRORS):
            return True
        if getattr(error, "transient", False):
            return True
        return bool(self.retry_on) and isinstance(error, self.retry_on)

    def backoff_delay(self, attempt: int, rng=None, key: str = "retry") -> float:
        """Sleep before the retry following failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        if self.backoff == "linear":
            delay = self.base_delay * attempt
        else:
            delay = self.base_delay * (self.multiplier ** (attempt - 1))
        delay = min(delay, self.max_delay)
        if self.jitter > 0.0 and rng is not None and delay > 0.0:
            delay += rng.uniform(key, 0.0, self.jitter * delay)
        return delay

    def schedule(self, rng=None, key: str = "retry") -> List[float]:
        """Planned backoff sleeps (``attempts - 1`` entries at most).

        Truncated so the cumulative sleep never exceeds the deadline
        budget; deterministic for a given seed (jitter draws come from
        the named stream ``key``).
        """
        delays: List[float] = []
        total = 0.0
        for attempt in range(1, self.attempts):
            delay = self.backoff_delay(attempt, rng=rng, key=key)
            if self.deadline is not None and total + delay > self.deadline:
                break
            total += delay
            delays.append(delay)
        return delays


__all__ = [
    "CallContext",
    "Layer",
    "MetricsLayer",
    "Overloaded",
    "RemoteError",
    "RetryPolicy",
    "RpcTimeout",
    "SLOLayer",
    "TRANSIENT_ERRORS",
    "TraceLayer",
    "compose",
]
