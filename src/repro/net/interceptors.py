"""Retry policies and the RPC error types.

Every remote call in the reproduction runs through
:meth:`~repro.net.network.Network.call`: its arguments name the call,
its ``timeout`` (a number) bounds each attempt, an optional
:class:`RetryPolicy` drives attempts, deadlines and backoff around it,
and each attempt is one pass through the network's transport stage
(marshalling, security costs, wire transfer, server dispatch, the
fault plane's two checks).  That stage also
observes the attempt when the VO observes at all: the ``rpc:`` span,
the per-endpoint ``rpc.*`` metrics and the attempt-level SLI are taken
there, with each endpoint's instruments resolved once.

Retry wraps the transport rather than living inside it: a
:class:`RetryPolicy` passed to ``Network.call`` re-runs the whole stage
per attempt (fresh envelope, fresh fault draws), exactly as a client
stack re-issues a failed request.  The default (observability off, no
retry policy) is the bare transport — pinned by the determinism
fingerprints in :mod:`repro.perf`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Tuple

from repro.simkernel.errors import OfflineError, SimulationError


class RpcTimeout(SimulationError):
    """A remote call did not complete within its deadline."""


class Overloaded(SimulationError):
    """A service shed the request at admission (inflight bound hit).

    Transient by definition: the caller may retry after backing off.
    ``request`` is the shed envelope, so the transport stage that sent
    it, and no stage above it, counts the shed.
    """

    transient = True

    def __init__(self, text: str, request: Any = None) -> None:
        super().__init__(text)
        self.request = request


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


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Shared retry/timeout policy for remote calls.

    One object describes everything a call site used to hand-roll:
    attempt count, per-attempt timeout, backoff shape, deterministic
    jitter and a total deadline budget.  Its fields are checked when it
    is built.  A call's own ``timeout`` overrides ``per_try_timeout``.

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

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.backoff not in ("exponential", "linear"):
            raise ValueError(f"backoff must be 'exponential' or 'linear', "
                             f"got {self.backoff!r}")
        for name in ("base_delay", "max_delay", "jitter"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("per_try_timeout", "deadline"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0 when set, got {value!r}")

    @classmethod
    def single(cls, timeout: float) -> "RetryPolicy":
        """One attempt with a deadline of ``timeout``."""
        return cls(attempts=1, per_try_timeout=timeout)

    @property
    def engaged(self) -> bool:
        """Whether the retry loop needs to run at all."""
        return (self.attempts > 1 or self.per_try_timeout is not None
                or self.deadline is not None)

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


__all__ = [
    "Overloaded",
    "RemoteError",
    "RetryPolicy",
    "RpcTimeout",
    "TRANSIENT_ERRORS",
]
