"""The simulation event loop.

A :class:`Simulator` owns an agenda of triggered events organised as a
*bucket queue*: a binary heap of distinct timestamps plus, per
timestamp, a FIFO list of the events scheduled for it (the *cohort*).
``run()`` drains cohorts in timestamp order, advancing the clock once
per cohort, and dispatches callbacks.  Processes are plain Python
generators wrapped by :class:`repro.simkernel.process.Process`.

Hot-path notes
--------------
The old agenda was a single ``(time, priority, seq, event)`` heap, which
paid two O(log n) sift passes plus a 4-tuple allocation for every event.
Discrete-event workloads are heavily *cohorted* — synchronized
processes, co-scheduled transmissions and monitor rounds land many
events on the same timestamp — so the agenda now amortises the heap
work across each cohort: one ``heappush``/``heappop`` of a bare float
per *distinct* timestamp, and a plain ``list.append`` per event.
Within a bucket, append order is dispatch order: sequence numbers are
monotone, so FIFO order *is* the old ``(time, priority, seq)`` order
for normal-priority events.  A timestamp holding a single event — the
common case on wire-transfer paths, whose float arithmetic rarely
collides — stores the event directly in the bucket dict and the list
only materialises when a cohort actually forms, so singleton schedules
allocate nothing.

Urgent events (priority ``URGENT``: process initialization and
interrupts) are always scheduled *at the current time* and must preempt
every normal event of that timestamp, so they live in a dedicated FIFO
drained before the agenda is touched and re-checked after every
dispatch.  This reproduces the old heap's ``(time, 0, seq)``-pops-first
ordering exactly.

``cancel()`` withdraws a scheduled event by deleting it from its
bucket — one dict probe for a :class:`Timeout`, which records its fire
time.  The timestamp of an emptied bucket is *not* dug out of the heap:
it is stale, and every consumer of the heap (``_fast_drain``, ``step``,
``peek``) pops a timestamp that has no bucket behind it without
touching the clock.  Scheduling onto a withdrawn timestamp pushes it a
second time; the first copy to surface drains the bucket, the second is
stale.  RPC deadlines arm and withdraw one timeout per call, so this
path is as hot as scheduling itself.

``run()`` inlines the dispatch body instead of calling :meth:`step` per
event, hoisting the agenda structures, the bound list methods and the
clock update (once per cohort, not per event) into locals.  The inlined
body is kept equivalent to :meth:`step`: same dispatch order, same
clock values, same callback runs, so the seeded event trace is
identical whichever loop ran it.  The ``until=Event`` form rides the
same fast loop (stopping right after the target's dispatch) instead of
paying a per-event ``step()`` call.

Processed :class:`~repro.simkernel.events.Timeout` objects are
recycled through a bounded free list.  A timeout is only reclaimed
when, after dispatch, the loop's local variable holds the *only*
remaining reference (checked via ``sys.getrefcount``): any timeout a
process or condition still points at keeps its identity and its
``value`` forever, exactly as before.  Recycling is therefore
invisible to simulation semantics; it only spares the allocator the
dominant object churn of the inner loop.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Process
from repro.simkernel.rng import RngRegistry

#: Sentinel meaning "run until the agenda drains".
FOREVER = None

#: Upper bound on the timeout free list (plenty for any experiment's
#: steady-state churn; bounds worst-case idle memory).
_POOL_LIMIT = 4096


class EmptySchedule(SimulationError):
    """Raised internally when the agenda is exhausted."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see
        :class:`~repro.simkernel.rng.RngRegistry`).  Two simulators built
        with the same seed and the same model produce identical traces.
    trace:
        When true, every dispatched event is appended to
        :attr:`trace_log` — handy in tests that assert on event order.

    :attr:`journal` is the run's one, always-on event log: every plane
    records through :meth:`note`; readers filter it with :func:`entries`.
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self._now: float = 0.0
        #: heap of distinct timestamps that have a pending bucket
        self._times: List[float] = []
        #: timestamp -> its pending events: a lone Event, or a list of
        #: events in schedule order once a cohort forms
        self._buckets: Dict[float, Any] = {}
        #: urgent events (inits, interrupts) at the current time; always
        #: dispatched before any bucket entry of the same timestamp
        self._urgent: deque = deque()
        self.rng = RngRegistry(seed)
        self.trace = trace
        self.trace_log: List[Tuple[float, str]] = []
        #: ``{"at", "plane", "kind", ...}`` per :meth:`note`, in order
        self.journal: List[Dict[str, Any]] = []
        self._active_process: Optional[Process] = None
        #: free list of processed, otherwise-unreferenced Timeouts
        self._timeout_pool: List[Timeout] = []
        #: optional hook called as ``spawn_observer(child, spawner)``
        #: whenever :meth:`process` registers a new process; the tracer
        #: uses it to inherit span context into spawned processes
        self.spawn_observer: Optional[Callable[[Process, Optional[Process]], None]] = None

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    def note(self, plane: str, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one entry to :attr:`journal`, stamped with the clock."""
        entry = {"at": self._now, "plane": plane, "kind": kind, **fields}
        self.journal.append(entry)
        return entry

    # -- event constructors ----------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create an untriggered event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        pool = self._timeout_pool
        if pool and delay >= 0:
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
            timeout.when = when = self._now + delay
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = timeout
                heappush(self._times, when)
            elif type(bucket) is list:
                bucket.append(timeout)
            else:
                buckets[when] = [bucket, timeout]
            return timeout
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a process and start it immediately."""
        proc = Process(self, generator, name=name)
        if self.spawn_observer is not None:
            self.spawn_observer(proc, self._active_process)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event firing when every event in ``events`` fires."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event firing when any event in ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling (kernel-internal) --------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put a triggered event on the agenda.

        Urgent events preempt every normal event of the same timestamp;
        the kernel only ever needs them *now* (process initialization,
        interrupts), which is what lets them live in a plain FIFO
        instead of forcing a priority field onto every bucket entry.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if priority == NORMAL:
            when = self._now + delay
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = event
                heappush(self._times, when)
            elif type(bucket) is list:
                bucket.append(event)
            else:
                buckets[when] = [bucket, event]
        else:
            if delay:
                raise ValueError(
                    "urgent events must be scheduled at the current time"
                )
            self._urgent.append(event)

    def cancel(self, event: Event) -> bool:
        """Withdraw a scheduled, not-yet-dispatched normal event.

        The shutdown primitive periodic components need: interrupting a
        process that waits on ``timeout(interval)`` detaches the waiter
        but leaves the timeout itself on the agenda until its fire time,
        so a "stopped" component would still hold a standing agenda
        entry (and keep ``run()`` busy until it lapses).  ``cancel``
        removes the event outright, so a fully drained simulation
        reports ``peek() == inf`` immediately.  RPC deadlines use it
        the same way: one per call, cancelled on every exit but expiry.

        A :class:`Timeout` records its fire time, so it is found by one
        dict probe; any other event is searched for bucket by bucket.
        The timestamp itself stays in the time heap and is skipped when
        it surfaces with no bucket behind it (lazy deletion — no
        ``heapify`` per cancel).

        Returns ``True`` when the event was found and removed, ``False``
        when it was never scheduled, already dispatched or cancelled, or
        urgent.  Cancelling out of the cohort being dispatched is fine
        (the drain loop re-reads the bucket's length each step).
        """
        if event._processed:
            return False
        buckets = self._buckets
        for when in (event.when,) if type(event) is Timeout else buckets:
            bucket = buckets.get(when)
            if bucket is event:
                del buckets[when]
                return True
            if type(bucket) is list:
                try:
                    bucket.remove(event)
                except ValueError:
                    continue
                if not bucket:
                    del buckets[when]
                return True
        return False

    def _recycle(self, event: Event) -> None:
        """Return a processed Timeout to the free list if nothing holds it.

        Caller contract: ``event`` was just dispatched and the caller's
        local is about to go out of scope.  ``getrefcount(event) == 2``
        then means that local plus getrefcount's own argument are the
        only references left, so reuse cannot alias live state.
        """
        if (
            type(event) is Timeout
            and getrefcount(event) == 3  # caller local + our arg + getrefcount arg
            and len(self._timeout_pool) < _POOL_LIMIT
        ):
            # ``defused`` needs no reset: timeouts always succeed, so the
            # failure-delivery paths that set it can never have run.
            event.callbacks = []
            event._processed = False
            event._value = None
            self._timeout_pool.append(event)

    # -- main loop ---------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if agenda empty)."""
        if self._urgent:
            return self._now
        times = self._times
        buckets = self._buckets
        while times and times[0] not in buckets:
            heappop(times)  # every event of that timestamp was cancelled
        return times[0] if times else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if self._urgent:
            event = self._urgent.popleft()
            when = self._now
        else:
            when = self.peek()
            if when == float("inf"):
                raise EmptySchedule("no more events")
            bucket = self._buckets[when]
            if type(bucket) is list:
                event = bucket.pop(0)
                if not bucket:
                    heappop(self._times)
                    del self._buckets[when]
            else:
                event = bucket
                heappop(self._times)
                del self._buckets[when]
            self._now = when
        if self.trace:
            self.trace_log.append((when, repr(event)))
        event._dispatch()
        self._recycle(event)

    def run(self, until: Optional[float] = FOREVER) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the agenda drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed and
          return its value (raising its exception if it failed).

        All three forms ride the cohort fast loop (see the module
        docstring) unless :attr:`trace` is on, in which case the
        per-event :meth:`step` debug path runs instead; behaviour and
        event order are identical either way.
        """
        if isinstance(until, Event):
            stop_value: List[Any] = []
            target = until

            def _stop(ev: Event) -> None:
                stop_value.append(ev)

            if target.processed:
                if not target.ok:
                    raise target.value
                return target.value
            target.subscribe(_stop)
            if self.trace:  # debug mode: take the per-event step() path
                while not stop_value:
                    if self.peek() == float("inf"):
                        raise SimulationError(
                            f"simulation ran out of events before {target!r} fired"
                        )
                    self.step()
            else:
                self._fast_drain(float("inf"), stop_value)
                if not stop_value:
                    raise SimulationError(
                        f"simulation ran out of events before {target!r} fired"
                    )
            if not target.ok:
                target.defused = True
                raise target.value
            return target.value

        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError("cannot run until a time in the past")
            if self.trace:  # debug mode: take the per-event step() path
                while self.peek() <= horizon:
                    self.step()
            else:
                self._fast_drain(horizon, ())
            self._now = horizon
            return None

        if self.trace:  # debug mode: take the per-event step() path
            while self.peek() != float("inf"):
                self.step()
            return None
        self._fast_drain(float("inf"), ())
        return None

    def _fast_drain(self, horizon: float, stop) -> None:
        """Drain cohorts through ``horizon`` (inclusive), no tracing.

        ``stop`` is a list the ``until=Event`` form's callback appends
        to (draining halts right after the dispatch that filled it) or
        an empty tuple, which reduces the check to a constant-false
        truthiness test for the numeric and drain-everything forms.

        The inlined dispatch body matches :meth:`step` exactly: same
        order, same clock updates, same callback runs, same timeout
        recycling.  A single waiter is the overwhelmingly common case,
        so dispatch indexes the callback list directly instead of
        paying for an iterator per event.
        """
        times = self._times
        buckets = self._buckets
        urgent = self._urgent
        pool = self._timeout_pool
        pop_time = heappop
        timeout_cls = Timeout
        refcount = getrefcount
        while True:
            while urgent:
                event = urgent.popleft()
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callback = callbacks[0]
                        if callback is not None:
                            callback(event)
                    else:
                        for callback in callbacks:
                            if callback is not None:
                                callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
                if stop:
                    return
            if stop:
                return
            if not times:
                return
            when = times[0]
            if when > horizon:
                return
            try:
                bucket = buckets[when]
            except KeyError:
                # stale timestamp: its events were all cancelled; the
                # clock must not advance to it
                pop_time(times)
                continue
            self._now = when
            if type(bucket) is not list:
                # Singleton bucket: the event rides the dict slot
                # directly.  Remove it before dispatch (same-time
                # schedules from its callbacks re-create the bucket and
                # re-push the timestamp, dispatching right after).
                pop_time(times)
                del buckets[when]
                event = bucket
                bucket = None  # recycle contract: loop local only
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callback = callbacks[0]
                        if callback is not None:
                            callback(event)
                    else:
                        for callback in callbacks:
                            if callback is not None:
                                callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
                if (
                    type(event) is timeout_cls
                    and refcount(event) == 2
                    and len(pool) < _POOL_LIMIT
                ):
                    event.callbacks = []
                    event._processed = False
                    event._value = None
                    pool.append(event)
                continue
            i = 0
            try:
                # Cohort drain: every event in the bucket shares this
                # timestamp, so the clock update above happens once per
                # cohort and the heap is untouched until the bucket is
                # exhausted.  Entries are cleared as they dispatch so
                # the free-list refcount contract still sees the loop
                # local as the only remaining reference.
                while i < len(bucket):
                    event = bucket[i]
                    bucket[i] = None
                    i += 1
                    event._processed = True
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        if len(callbacks) == 1:
                            callback = callbacks[0]
                            if callback is not None:
                                callback(event)
                        else:
                            for callback in callbacks:
                                if callback is not None:
                                    callback(event)
                    if event._ok is False and not event.defused:
                        raise event._value
                    if (
                        type(event) is timeout_cls
                        and refcount(event) == 2
                        and len(pool) < _POOL_LIMIT
                    ):
                        event.callbacks = []
                        event._processed = False
                        event._value = None
                        pool.append(event)
                    if urgent or stop:
                        # urgent arrivals preempt the rest of the
                        # cohort; the outer loop drains them and then
                        # re-enters this bucket at the trimmed index
                        break
            finally:
                # On every exit path (cohort done, urgent preemption,
                # stop hit, or an exception from a callback) the bucket
                # keeps exactly its undispatched tail.
                del bucket[:i]
                if not bucket:
                    pop_time(times)
                    del buckets[when]


def entries(journal: List[Dict[str, Any]], plane: str,
            *kinds: str) -> List[Dict[str, Any]]:
    """``journal``'s entries from ``plane`` (of ``kinds``, if any), in order."""
    return [entry for entry in journal
            if entry["plane"] == plane and (not kinds or entry["kind"] in kinds)]
