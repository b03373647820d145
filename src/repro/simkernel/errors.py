"""Exception types used by the simulation kernel."""

from __future__ import annotations

from typing import Any


class SimulationError(Exception):
    """Base class for errors raised by the kernel itself."""


class StopProcess(Exception):
    """Raised inside a process generator to terminate it with a value.

    Returning from the generator (plain ``return value``) is the normal
    way to finish; ``StopProcess`` exists for code that needs to abort
    from deep inside helper functions without threading return values
    through every frame.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(BaseException):
    """Thrown into a process when another process interrupts it.

    The interrupt *cause* is an arbitrary object describing why the
    victim was interrupted (e.g. ``"super-peer failed"``).

    Derives from :class:`BaseException` (as ``asyncio.CancelledError``
    does): an interrupt is a ``stop()`` or an RPC deadline addressed to
    the whole process, so a broad ``except Exception`` around a yielding
    call — which only means "that call failed" — must not swallow it.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class EventAlreadyFired(SimulationError):
    """An event was succeeded/failed more than once."""


class OfflineError(SimulationError):
    """An operation was attempted against a failed (offline) component.

    Used throughout the Grid substrate to model site and service
    failures: RPCs to an offline site raise this in the caller.
    """
