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
counted.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

import numpy as np

from repro.glare.errors import CLIENT_ERRORS
from repro.net.interceptors import Overloaded, RpcTimeout

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


class OpenLoopDriver:
    """Spawn-and-forget request processes measured by streaming stats.

    ``make_call(op, index)`` returns the RPC sub-generator for one
    request; the driver wraps it with outcome classification:

    - success         -> ``stats.ok(op, latency, t)``
    - ``Overloaded``  -> ``stats.shed(op, t)`` (admission-shed)
    - ``RpcTimeout``  -> ``stats.timeout(op, t)``
    - other ``CLIENT_ERRORS`` -> ``stats.fail(op, t)`` (app/transport
      faults); anything else is a bug in ``make_call`` and fails the run
    """

    __slots__ = ("vo", "stats", "timeout", "warmup", "spawned")

    def __init__(
        self,
        vo,
        stats: StreamStats,
        request_timeout: float = 10.0,
        warmup: float = 0.0,
    ) -> None:
        self.vo = vo
        self.stats = stats
        self.timeout = request_timeout
        self.warmup = float(warmup)
        self.spawned = 0

    def fire(
        self,
        op: str,
        t: float,
        index: int,
        make_call: Callable[[str, int], Generator],
    ) -> None:
        """Launch the request process for arrival ``index`` at time ``t``."""
        self.vo.sim.process(self._request(op, t, index, make_call))
        self.spawned += 1

    def _request(
        self,
        op: str,
        t: float,
        index: int,
        make_call: Callable[[str, int], Generator],
    ) -> Generator:
        sim = self.vo.sim
        stats = self.stats
        start = sim.now
        measured = t >= self.warmup
        outcome = "ok"
        try:
            yield from make_call(op, index)
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

    def call(self, src: str, dst: str, method: str, payload: object,
             service: Optional[str] = None) -> Generator:
        """One client RPC under this driver's single-attempt deadline."""
        if service is None:
            from repro.glare.rdm import RDM_SERVICE
            service = RDM_SERVICE
        value = yield from self.vo.network.call(
            src, dst, service, method, payload=payload, timeout=self.timeout
        )
        return value
