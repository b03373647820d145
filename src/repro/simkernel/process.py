"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator yields
:class:`~repro.simkernel.events.Event` objects; when a yielded event is
dispatched, the process resumes with the event's value (or the event's
exception is thrown into it).  A process is itself an event that fires
when the generator returns, so processes can wait on each other.

Hot-path notes
--------------
:meth:`Process._resume` is the single most-executed function in any
experiment: it runs once per dispatched event a process waits on.  It
therefore (a) caches its own bound-method reference (``_resume_cb``) so
subscribing does not allocate a fresh bound method per wait, (b) takes
a dedicated branch for the dominant ``yield sim.timeout(...)`` case
that appends to the waiter list directly, and (c) reads the kernel's
``_ok``/``_processed`` slots instead of going through properties.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simkernel.errors import Interrupt, SimulationError, StopProcess
from repro.simkernel.events import URGENT, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator


class _Initialize(Event):
    """Kick-start event that runs the first step of a new process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        self.sim = sim
        self.name = f"init({process.name})"
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._processed = False
        self.defused = False
        sim._schedule(self, priority=URGENT)


class Process(Event):
    """A running generator; also an event firing at termination."""

    __slots__ = ("generator", "_target", "_resume_cb")

    def __init__(
        self, sim: "Simulator", generator: Generator, name: Optional[str] = None
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: the event this process currently waits on (None when running
        #: its first step or already terminated).
        self._target: Optional[Event] = None
        #: the one bound-method object used for every subscription
        self._resume_cb = self._resume
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._ok is None

    @property
    def is_waiting(self) -> bool:
        """True while parked on an event that has yet to be dispatched.

        False before the first step, while stepping, with an interrupt
        already queued and once terminated — the states in which the
        process takes its next step (if any) without being interrupted.
        """
        target = self._target
        return target is not None and not target._processed

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting detaches it from its wait target first (the
        waiter slot is tombstoned — see ``Event.unsubscribe``).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.sim, name=f"interrupt({self.name})")
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume_cb)
        self.sim._schedule(interrupt_event, priority=URGENT)
        if self._target is not None:
            self._target.unsubscribe(self._resume_cb)
            self._target = None

    # -- stepping (kernel-internal) ----------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        sim = self.sim
        sim._active_process = self
        generator = self.generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._value)
            # A terminated process lets go of the event it last waited
            # on, so the timeout it ends on goes back to the free list.
            except StopIteration as stop:
                sim._active_process = self._target = None
                self.succeed(stop.value)
                return
            except StopProcess as stop:
                sim._active_process = self._target = None
                self.succeed(stop.value)
                return
            except BaseException as error:
                sim._active_process = self._target = None
                self.fail(error)
                return

            # Fast path: a live (unprocessed) Timeout — the dominant
            # thing processes wait on.  Append the cached bound method
            # directly; the generic checks below are redundant here.
            if type(next_event) is Timeout:
                callbacks = next_event.callbacks
                if callbacks is not None:
                    callbacks.append(self._resume_cb)
                    self._target = next_event
                    sim._active_process = None
                    return
                # already processed: resume immediately with its outcome
                event = next_event
                continue

            if not isinstance(next_event, Event):
                sim._active_process = self._target = None
                crash = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                generator.close()
                self.fail(crash)
                return

            if next_event._processed:
                # Already happened: resume immediately with its outcome.
                event = next_event
                continue
            next_event.callbacks.append(self._resume_cb)
            self._target = next_event
            sim._active_process = None
            return
