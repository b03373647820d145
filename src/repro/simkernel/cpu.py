"""CPU service centre and Unix-style load-average accounting.

The paper's Fig. 13 plots the registry host's *1-minute load average*
(as reported by ``uptime``) against the number of concurrent clients
and notification sinks.  To reproduce the shape mechanistically we
model each Grid-site CPU as a ``cores``-server FCFS station and sample
its run-queue length through the same exponentially-damped recurrence
the Linux kernel uses::

    load += (n - load) * (1 - exp(-interval / window))

where ``n`` counts runnable jobs (running + queued).

The station
-----------
:class:`CPU` is a count of busy cores plus a FIFO of *grant events*,
one per job waiting for a core.  A claim that finds a core free takes
it in the claimer's own step — a counter increment, no event: whether
the core is free is known there and then, so a trip over the agenda
would carry no simulated time and decide nothing, and every RPC claims
three times (marshal, unmarshal, handler).  Only a claim that must wait
creates an event and yields it.  A release hands the core straight to
the longest waiter (the busy count does not move, so nobody can barge
in between) or, with nobody waiting, frees it.

A job can be interrupted (an RPC deadline, a ``stop()``) in three
windows, and in each of them a core is never left held by nobody:
*queued* — its grant event leaves the queue with it; *handed a core but
not resumed yet* (the grant is triggered and still on the agenda) — it
passes the core on exactly as a release would; *running* — it releases,
and only the time the core was actually held counts as busy.

FCFS order, every grant decision and every completion *time* are what
they would be if each claim took the agenda trip.  What can differ is
order *within one instant*: a job that takes a free core schedules its
service time a trip earlier, so when another job is handed a core (at
any CPU) in that same instant and both demands are equal, the two
complete in the same instant in the other order.  Lock-stepped
closed-loop clients do produce that tie on some seeds; no pinned
digest or fingerprint contains one.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Generator, List, Tuple

from repro.simkernel.events import Event
from repro.simkernel.primitives import Periodic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator


class CPU:
    """A multi-core FCFS processing station.

    Parameters
    ----------
    sim:
        Owning simulator.
    cores:
        Number of processors.
    speed:
        Relative speed multiplier; a demand of ``d`` seconds takes
        ``d / speed`` wall-clock (simulated) seconds on one core.
    """

    def __init__(self, sim: "Simulator", cores: int = 1, speed: float = 1.0) -> None:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.sim = sim
        self.cores = cores
        self.speed = speed
        #: cores held: by a running job, or handed to a waiter that has
        #: not resumed yet
        self._busy = 0
        #: grant events of the jobs waiting for a core, longest first
        self._waiting: Deque[Event] = deque()
        #: cumulative busy core-seconds, for utilisation reporting
        self.busy_time = 0.0
        self.jobs_completed = 0

    @property
    def run_queue_length(self) -> int:
        """Runnable jobs: running plus waiting (what loadavg samples)."""
        return self._busy + len(self._waiting)

    @property
    def running(self) -> int:
        """Jobs currently holding a core."""
        return self._busy

    def utilization(self) -> float:
        """Average core utilisation since t=0 (0..1)."""
        if self.sim.now <= 0:
            return 0.0
        return self.busy_time / (self.sim.now * self.cores)

    def execute(self, demand: float) -> Generator:
        """Sub-generator: occupy one core for ``demand`` CPU-seconds.

        Use as ``yield from cpu.execute(0.005)`` inside a process body.
        """
        if demand < 0:
            raise ValueError("demand must be non-negative")
        sim = self.sim
        waiting = self._waiting
        grant = start = None
        try:
            if self._busy < self.cores:
                self._busy += 1  # a free core: taken here, no event
            else:
                grant = Event(sim)
                waiting.append(grant)
                yield grant
            start = sim._now
            yield sim.timeout(demand / self.speed)
            self.jobs_completed += 1
        finally:
            if start is not None:
                self.busy_time += sim._now - start
            if start is None and not grant.triggered:
                waiting.remove(grant)  # interrupted in the queue: withdraw
            elif waiting:
                # held (or handed over and never resumed on): the core
                # goes to the longest waiter without becoming free
                waiting.popleft().succeed()
            else:
                self._busy -= 1


class LoadAverage(Periodic):
    """Exponentially-damped run-queue sampler (Unix 1-minute loadavg).

    Call :meth:`start` to launch the sampling process; read
    :attr:`value` at any time, or :attr:`history` for the full series.
    """

    def __init__(
        self,
        sim: "Simulator",
        cpu: CPU,
        window: float = 60.0,
        interval: float = 5.0,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(sim, interval, self._sample, "loadavg")
        self.cpu = cpu
        self.window = window
        self.value = 0.0
        self.history: List[Tuple[float, float]] = []
        self._decay = math.exp(-interval / window)

    def peak(self) -> float:
        """Highest sampled load average so far."""
        if not self.history:
            return self.value
        return max(v for _, v in self.history)

    def mean(self, since: float = 0.0) -> float:
        """Mean sampled load average over samples taken at t >= since."""
        samples = [v for t, v in self.history if t >= since]
        if not samples:
            return self.value
        return sum(samples) / len(samples)

    def _sample(self) -> None:
        n = self.cpu.run_queue_length
        self.value = self.value * self._decay + n * (1.0 - self._decay)
        self.history.append((self.sim.now, self.value))
