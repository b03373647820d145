"""Traffic mixing and the open-loop request driver.

``TrafficMix`` deterministically assigns each arrival index to an op
class by mix weight; ``OpenLoopDriver`` turns a fired arrival into a
request *process* — spawn-and-forget, never waiting for a previous
response before issuing the next request.  That open loop is the point:
closed-loop clients self-throttle when the service slows down, so
``admission_limit`` shedding never engages; an open-loop population
keeps offering load and the server must shed.

Each request is one attempt with ``request_timeout`` as its deadline
(``Network.call``'s ``timeout``), so overload shows up as `Overloaded`
(shed at admission) or `RpcTimeout` (deadline exceeded in queue), and
the drain phase after the last arrival is bounded.

Outcomes stream into `repro.load.stats.StreamStats` (per-op histograms
and counters) and an order-independent record digest keyed by arrival
index, so fan-out shards merge to the same fingerprint regardless of
worker completion order.  Only arrivals at or after ``warmup`` are
measured; warmup arrivals still run (load is load), they just are not
counted.  The audit holds each driver to one outcome per measured
arrival it fired (``requests-conserved``).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterator, Tuple

import numpy as np

from repro.glare.errors import CLIENT_ERRORS
from repro.glare.rdm import RDM_SERVICE
from repro.net.interceptors import Overloaded, RpcTimeout
from repro.net.service import Plane

from .arrivals import arrival_stream
from .stats import StreamStats

__all__ = ["TrafficMix", "OpenLoopDriver"]


class TrafficMix:
    """Deterministic per-arrival op assignment by weight."""

    def __init__(self, weights: Dict[str, float], name: str = "mix") -> None:
        if not weights:
            raise ValueError("traffic mix needs at least one op class")
        total = float(sum(weights.values()))
        if total <= 0.0:
            raise ValueError("traffic mix weights must sum to a positive value")
        self.ops: Tuple[str, ...] = tuple(sorted(weights))
        self.weights = tuple(float(weights[op]) / total for op in self.ops)
        self.name = name

    def assign(self, n: int, seed: int) -> np.ndarray:
        """Op index (into ``self.ops``) for each of ``n`` arrivals."""
        rng = arrival_stream(seed, self.name)
        return rng.choice(len(self.ops), size=int(n), p=self.weights).astype(np.int8)


class OpenLoopDriver(Plane):
    """Spawn-and-forget request processes measured by streaming stats.

    ``make_call(op, index)`` returns one request's call, ``(src, dst,
    method, payload)`` to the RDM service; the driver makes it at the
    request's first step, one attempt under its ``request_timeout``
    deadline, and classifies the outcome:

    - success         -> ``stats.ok(op, latency, t)``
    - ``Overloaded``  -> ``stats.shed(op, t)`` (admission-shed)
    - ``RpcTimeout``  -> ``stats.timeout(op, t)``
    - other ``CLIENT_ERRORS`` -> ``stats.fail(op, t)`` (app/transport
      faults); anything else is a bug in ``make_call`` and fails the run

    A driver is a world-level plane of its network (``Network.planes``),
    so the audit holds it to ``requests-conserved``: one outcome per
    measured arrival it fired, never more, and exactly one once the
    network is stopped and drained.  It owns no loop: the
    ``CohortInjector`` that fires it runs a finite trace, which has
    fired its last cohort before a figure returns.
    """

    __slots__ = ("network", "stats", "timeout", "warmup", "spawned", "measured")

    name = "open-loop"

    def __init__(
        self,
        network,
        stats: StreamStats,
        request_timeout: float = 10.0,
        warmup: float = 0.0,
    ) -> None:
        self.network = network
        self.stats = stats
        self.timeout = request_timeout
        self.warmup = float(warmup)
        #: arrivals fired, and those of them at or after ``warmup``
        self.spawned = self.measured = 0
        network.planes.append(self)

    def fire(
        self,
        op: str,
        t: float,
        index: int,
        make_call: Callable[[str, int], Tuple[str, str, str, object]],
    ) -> None:
        """Launch the request process for arrival ``index`` at time ``t``."""
        self.network.sim.process(self._request(op, t, index, make_call))
        self.spawned += 1
        if t >= self.warmup:
            self.measured += 1

    def _request(
        self,
        op: str,
        t: float,
        index: int,
        make_call: Callable[[str, int], Tuple[str, str, str, object]],
    ) -> Generator:
        network = self.network
        sim = network.sim
        stats = self.stats
        start = sim.now
        measured = t >= self.warmup
        src, dst, method, payload = make_call(op, index)
        outcome = "ok"
        try:
            yield from network.call(src, dst, RDM_SERVICE, method,
                                    payload=payload, timeout=self.timeout)
        except Overloaded:
            outcome = "shed"
            if measured:
                stats.shed(op, t)
        except RpcTimeout:
            outcome = "timeout"
            if measured:
                stats.timeout(op, t)
        except CLIENT_ERRORS:
            outcome = "failed"
            if measured:
                stats.fail(op, t)
        else:
            if measured:
                stats.ok(op, sim.now - start, t)
        if measured:
            stats.digest.fold(f"{op}|{index}|{t:.6f}|{outcome}|{sim.now:.6f}")

    def invariants(self) -> Iterator[Tuple[str, str]]:
        offered = self.stats.offered
        if offered > self.measured or (self.network.stopped
                                       and offered != self.measured):
            yield "requests-conserved", (
                f"{offered} outcomes booked for {self.measured} measured arrivals")
