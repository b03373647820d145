"""CPU service centre and Unix-style load-average accounting.

The paper's Fig. 13 plots the registry host's *1-minute load average*
(as reported by ``uptime``) against the number of concurrent clients
and notification sinks.  To reproduce the shape mechanistically we
model each Grid-site CPU as a ``cores``-server FCFS station and sample
its run-queue length through the same exponentially-damped recurrence
the Linux kernel uses::

    load += (n - load) * (1 - exp(-interval / window))

where ``n`` counts runnable jobs (running + queued).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, List, Tuple

from repro.simkernel.primitives import Periodic, Resource

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
        self._resource = Resource(sim, capacity=cores)
        #: cumulative busy core-seconds, for utilisation reporting
        self.busy_time = 0.0
        self.jobs_completed = 0

    @property
    def run_queue_length(self) -> int:
        """Runnable jobs: running plus waiting (what loadavg samples)."""
        return self._resource.count + self._resource.queue_length

    @property
    def running(self) -> int:
        """Jobs currently holding a core."""
        return self._resource.count

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
        request = self._resource.request()
        start = None
        try:
            # the queue wait is covered too: a process interrupted here
            # (an RPC deadline, say) must withdraw its request, or the
            # core is later granted to nobody and held forever
            yield request
            start = self.sim.now
            yield self.sim.timeout(demand / self.speed)
            self.jobs_completed += 1
        finally:
            if start is not None:
                self.busy_time += self.sim.now - start
            self._resource.release(request)


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
