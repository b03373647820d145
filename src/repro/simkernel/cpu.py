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
one per job waiting for a core.  A job is :meth:`CPU.claim` (one event
that fires at its completion, valued with its start instant), then
:meth:`CPU.release`, or :meth:`CPU.withdraw` if it is interrupted
first; the RPC transport makes the three calls in its own frame.  A
claim that finds a core free takes it in the claimer's own step and
its event is the service timeout: whether the core is free is known
there and then, so a trip over the agenda would carry no simulated
time and decide nothing.  Only a claim that must wait creates a grant
event.  A release hands the core straight to the longest waiter (the
busy count does not move, so nobody can barge in between) by
triggering its grant with the service time as the delay: the job
starts on the spot and its process resumes once, at completion.  With
nobody waiting, the core is freed.

A job can be interrupted (an RPC deadline, a ``stop()``) in three
windows, and in each of them a core is never left held by nobody:
*queued* — its grant leaves the queue with it; *handed a core* or
*running on one it found free* — its completion is cancelled, only the
time since it started counts as busy, and the core passes on exactly
as a release would.

FCFS order, every grant decision and every completion *time* are what
they would be if each claim and each hand-off took the agenda trip.
What can differ is order *within one instant*: a job that takes a free
core or is handed one files its completion in that step, a trip
earlier, so two jobs (at any CPUs) completing in the same instant can
do so in the other order.  Lock-stepped clients produce that tie on
some seeds: with hand-offs filed in place, ``benchmarks/e2e``'s
``openloop_steady`` op digest moves at seeds 2, 4, 5, 91 and 4242 and
``closed_lookup``'s at seeds 3 and 5 (p50, p99 and the ok count do
not).  No pinned digest or fingerprint contains such a tie, nor does
the benchmark's default seed or seed 77.
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
        #: cores held by a job: one it found free or was handed
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

    def claim(self, demand: float) -> Event:
        """One event that fires when a job of ``demand`` CPU-seconds
        completes, valued with the instant it started: the service
        timeout on a free core, else the job's grant in the queue."""
        if demand < 0:
            raise ValueError("demand must be non-negative")
        sim = self.sim
        if self._busy < self.cores:
            self._busy += 1  # a free core: taken here, no grant event
            return sim.timeout(demand / self.speed, sim._now)
        grant = Event(sim)
        grant._value = demand / self.speed  # a pending grant holds its service time
        self._waiting.append(grant)
        return grant

    def release(self, start: float) -> None:
        """The job that started at ``start`` completed: count the core
        busy since then and hand it to the longest waiter, whose job
        starts now, or free it."""
        now = self.sim._now
        self.busy_time += now - start
        self.jobs_completed += 1
        if self._waiting:
            grant = self._waiting.popleft()
            grant.succeed(now, grant._value)
        else:
            self._busy -= 1

    def withdraw(self, claim: Event) -> None:
        """Undo ``claim`` for a job interrupted before it completed."""
        if claim._ok is None:
            self._waiting.remove(claim)  # still queued
        else:  # holding a core: its completion never comes
            self.sim.cancel(claim)
            self.release(claim._value)  # passes the core on, and
            self.jobs_completed -= 1    # the job did not complete

    def execute(self, demand: float) -> Generator:
        """Sub-generator: occupy one core for ``demand`` CPU-seconds
        (``yield from cpu.execute(0.005)`` inside a process body)."""
        claim = self.claim(demand)
        try:
            start = yield claim
        except BaseException:
            self.withdraw(claim)
            raise
        self.release(start)


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
