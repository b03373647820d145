"""Event primitives for the simulation kernel.

Everything a process can wait on is an :class:`Event`.  An event moves
through three states:

``pending``
    created, not yet scheduled to fire;
``triggered``
    ``succeed()``/``fail()`` has been called and the event sits on the
    simulator's agenda;
``processed``
    the simulator has popped it and run its callbacks.

Composite conditions (:class:`AllOf`, :class:`AnyOf`) fire when their
child events do, mirroring the semantics of SimPy conditions but with a
much smaller surface: the condition's value is a dict mapping child
events to their values.

Hot-path notes
--------------
:class:`Timeout` is by far the most-allocated object in any experiment
(every ``yield sim.timeout(...)`` and every transmission leg creates
one), so its constructor writes slots directly and schedules inline
instead of delegating through ``Event.__init__``/``Simulator._schedule``,
and its display name is a lazy property — the old eager
``f"timeout({delay})"`` string build showed up as several percent of
total runtime.  Recycling of processed timeouts lives in
:class:`~repro.simkernel.kernel.Simulator` (see its free-list notes).

Scheduling appends the event to its timestamp's bucket (the simulator's
agenda is a bucket queue — see the kernel module docstring); the heap
of distinct timestamps is only touched when a timestamp gains its first
event, so the per-event cost is a dict probe plus a list append instead
of an O(log n) sift with a 4-tuple allocation.  A timestamp with a
single event — the common case on wire-transfer paths, where float
latencies rarely collide — stores the event directly in the bucket
dict; the list only materialises when a second event lands on the same
timestamp, so singleton schedules allocate nothing at all.

Waiter removal uses *lazy cancellation*: :meth:`Event.unsubscribe`
tombstones the callback slot with ``None`` instead of ``list.remove``'s
O(n) shift, and dispatch skips tombstones.  One ``unsubscribe`` cancels
exactly one registration (the earliest matching one); a callback
subscribed twice must be unsubscribed twice, which was already the
observable behaviour of the old ``remove``-based code.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.simkernel.errors import EventAlreadyFired, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

# Scheduling priorities: urgent events (interrupts) preempt normal ones
# scheduled at the same timestamp.
URGENT = 0
NORMAL = 1


class Event:
    """A single occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_processed", "defused")

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Optional[Callable[["Event"], None]]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._processed = False
        #: set when a failure has been delivered to (or deliberately
        #: ignored by) someone; undefused failures crash the simulation.
        self.defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the simulator has dispatched the event."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise AttributeError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception when it failed)."""
        if self._ok is None:
            raise AttributeError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._ok is not None:
            raise EventAlreadyFired(f"{self!r} already triggered")
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._ok = True
        self._value = value
        sim = self.sim
        when = sim._now + delay
        buckets = sim._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = self
            heappush(sim._times, when)
        elif type(bucket) is list:
            bucket.append(self)
        else:
            buckets[when] = [bucket, self]
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiters will have ``exception`` thrown."""
        if self._ok is not None:
            raise EventAlreadyFired(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._ok = False
        self._value = exception
        sim = self.sim
        when = sim._now + delay
        buckets = sim._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = self
            heappush(sim._times, when)
        elif type(bucket) is list:
            bucket.append(self)
        else:
            buckets[when] = [bucket, self]
        return self

    def trigger(self, other: "Event") -> None:
        """Copy the outcome of ``other`` onto this event (chain helper)."""
        if other._ok is None:
            raise SimulationError(
                f"cannot trigger {self!r} from untriggered event {other!r}"
            )
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._value)

    # -- dispatch (kernel-internal) -------------------------------------

    def _dispatch(self) -> None:
        """Run callbacks.  Called exactly once by the simulator."""
        self._processed = True
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for callback in callbacks:
                if callback is not None:  # skip lazily-cancelled waiters
                    callback(self)
        if self._ok is False and not self.defused:
            # A failure nobody waited for: crash loudly rather than
            # silently losing the error.
            raise self._value

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is dispatched."""
        if self.callbacks is None:
            raise EventAlreadyFired(f"{self!r} already processed")
        self.callbacks.append(callback)

    def unsubscribe(self, callback: Callable[["Event"], None]) -> None:
        """Lazily cancel one registration of ``callback`` (no-op if absent).

        The matching slot is tombstoned with ``None`` and skipped at
        dispatch, so cancellation never shifts the waiter list (the old
        ``list.remove`` was O(n) per cancel).  Exactly one registration
        is cancelled per call — a callback subscribed twice keeps its
        second registration until unsubscribed again.
        """
        callbacks = self.callbacks
        if callbacks is None:
            return
        try:
            callbacks[callbacks.index(callback)] = None
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        state = (
            "processed" if self._processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__}{label} [{state}] at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Construction is the kernel's hottest allocation site, so slots are
    written directly (no ``Event.__init__``/``_schedule`` delegation)
    and the display name is derived lazily from :attr:`delay`.
    """

    __slots__ = ("delay", "when")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self.defused = False
        self.delay = delay
        #: absolute fire time; lets ``Simulator.cancel`` find the bucket
        self.when = when = sim._now + delay
        buckets = sim._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = self
            heappush(sim._times, when)
        elif type(bucket) is list:
            bucket.append(self)
        else:
            buckets[when] = [bucket, self]

    @property
    def name(self) -> str:  # shadows the Event slot: computed on demand
        return f"timeout({self.delay})"


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: List[Event] = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
        self._pending = sum(1 for e in self.events if not e.processed)
        for event in self.events:
            if event.processed:
                if not event.ok and self._ok is None:
                    event.defused = True
                    self.fail(event.value)
            else:
                event.subscribe(self._on_child)
        self._check()

    def _on_child(self, event: Event) -> None:
        self._pending -= 1
        if not event.ok:
            event.defused = True
            if self._ok is None:
                self.fail(event.value)
            return
        self._check()

    def _collect(self) -> dict:
        return {e: e._value for e in self.events if e.processed and e._ok}

    def _done_count(self) -> int:
        return sum(1 for e in self.events if e.processed and e._ok)

    def _check(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* child events have fired (value: dict of results)."""

    __slots__ = ()

    def _check(self) -> None:
        if self._ok is None and self._done_count() == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when *any* child event has fired (value: dict of results)."""

    __slots__ = ()

    def _check(self) -> None:
        if self._ok is None and (self._done_count() > 0 or not self.events):
            self.succeed(self._collect())
