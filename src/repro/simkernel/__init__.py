"""Deterministic discrete-event simulation kernel.

This package is the foundation of the whole reproduction: every Grid
service (registries, index services, job managers, transfer services,
super-peer election) runs as a generator-based *process* scheduled by a
single :class:`~repro.simkernel.kernel.Simulator` event loop.

The design follows the classic process-interaction style (as
popularised by SimPy): a process is a Python generator that ``yield``\\ s
:class:`~repro.simkernel.events.Event` objects and is resumed when the
event fires.  All randomness flows through named, seeded RNG streams
(:mod:`repro.simkernel.rng`) so that every experiment in the paper is
exactly reproducible run-to-run.

Public surface
--------------

``Simulator``
    The event loop: ``process()``, ``timeout()``, ``event()``, ``run()``.
``Event``, ``Timeout``, ``AllOf``, ``AnyOf``
    Awaitable occurrences.
``Process``, ``Interrupt``
    Process handles and the interrupt exception.
``Store``, ``Resource``
    Queueing primitives used to model mailboxes, worker pools, and
    bounded buffers.
``CPU``
    A multi-processor FCFS service centre with run-queue accounting,
    used by the load-average experiments (paper Fig. 13).
``RngRegistry``
    Deterministic named random streams.
"""

from repro.simkernel.errors import Interrupt, SimulationError, StopProcess
from repro.simkernel.events import AllOf, AnyOf, Event, Timeout
from repro.simkernel.kernel import Simulator
from repro.simkernel.process import Process
from repro.simkernel.primitives import (
    Resource,
    Store,
    bounded_gather,
)
from repro.simkernel.cpu import CPU, LoadAverage
from repro.simkernel.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "CPU",
    "bounded_gather",
    "Event",
    "Interrupt",
    "LoadAverage",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopProcess",
    "Store",
    "Timeout",
]
