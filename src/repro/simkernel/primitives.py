"""Queueing primitives: stores and resources.

These model the shared structures the Grid substrate is built from:

* :class:`Store` — a FIFO buffer of items (service mailboxes, job queues);
* :class:`Resource` — ``capacity`` interchangeable servers with a FIFO
  wait queue (worker pools, CPU cores at the RPC level);
* :func:`bounded_gather` — run sub-generators concurrently with a
  fan-out bound, collecting per-item outcomes in input order;
* :class:`SingleFlight` — coalesce concurrent identical work onto the
  first caller, who leads while the others wait for its outcome;
* :class:`Periodic` — a background loop (wait, tick, repeat) with the
  one start/stop contract every periodic component shares.

All follow the same pattern: ``put``/``get``/``request`` return events
that a process yields; the primitive fires them as capacity allows.
"""

from __future__ import annotations

from collections import deque
from inspect import isgeneratorfunction
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Generator, Hashable, List,
    Sequence, Tuple,
)

from repro.simkernel.errors import Interrupt
from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator


def bounded_gather(
    sim: "Simulator",
    factories: Sequence[Callable[[], Generator]],
    limit: int = 0,
    name: str = "gather",
) -> Generator:
    """Run generator ``factories`` concurrently, at most ``limit`` at once.

    A sub-generator (``outcomes = yield from bounded_gather(...)``) that
    starts each factory's generator in its own process and waits for all
    of them.  ``limit <= 0`` means unbounded fan-out; otherwise a fixed
    pool of ``limit`` worker processes pulls the remaining items in
    input order, so item *k* never starts before item *k - limit* has a
    worker free — the deterministic bounded-parallelism shape used by
    candidate probing and rollouts.

    Returns a list of ``(ok, value)`` pairs in input order: ``(True,
    result)`` for items that returned, ``(False, exception)`` for items
    that raised.  Failures never crash the gathering process; callers
    decide how to surface them.
    """
    factories = list(factories)
    if not factories:
        return []
    outcomes: List[Tuple[bool, Any]] = [(False, None)] * len(factories)

    def run_one(index: int) -> Generator:
        try:
            value = yield from factories[index]()
            outcomes[index] = (True, value)
        except Exception as error:
            outcomes[index] = (False, error)

    pending: Deque[int] = deque(range(len(factories)))

    def worker() -> Generator:
        while pending:
            yield from run_one(pending.popleft())

    width = len(factories) if limit <= 0 else min(limit, len(factories))
    procs = [sim.process(worker(), name=f"{name}-{slot}") for slot in range(width)]
    yield sim.all_of(procs)
    return outcomes


class SingleFlight:
    """Coalesce concurrent identical work: one leader per key at a time.

    ``led, ok, value = yield from flights.run(key, lead)``: the first
    caller for ``key`` leads — it runs ``lead()`` and gets ``(True,
    True, value)``, or the exception ``lead()`` raised, which is raised
    *only* there.  Callers arriving while that run is in flight follow:
    they wait for it and get ``(False, True, value)``, or ``(False,
    False, None)`` when the leader failed or was interrupted.  What a
    follower does with either — share the value, retry on its own,
    raise — is the caller's policy, not this primitive's.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: key -> the event the leader fires with its ``(ok, value)``
        self.in_flight: Dict[Hashable, Event] = {}

    def run(self, key: Hashable, lead: Callable[[], Generator]) -> Generator:
        pending = self.in_flight.get(key)
        if pending is not None:
            ok, value = yield pending
            return False, ok, value
        done = self.in_flight[key] = self.sim.event(name=f"flight:{key}")
        try:
            value = yield from lead()
        except BaseException:
            done.succeed((False, None))
            raise
        finally:
            del self.in_flight[key]
        done.succeed((True, value))
        return True, True, value


class Periodic:
    """A background loop: wait ``interval``, run ``tick``, repeat.

    The start/stop contract of every periodic component:

    * :meth:`start` spawns the loop as a process called ``name`` unless
      one is running; :meth:`stop` ends it.  Both are idempotent,
      ``stop()`` before ``start()`` is a no-op and a stopped loop can
      be started again.
    * ``stop()`` interrupts the loop wherever it is parked — on its
      wait or inside a yielding tick — and the loop withdraws the wait
      it was parked on (:meth:`Simulator.cancel`): a stopped loop
      leaves nothing on the agenda.
    * The loop re-reads who it is before every round, so a ``stop()``
      from inside its own tick (a process cannot interrupt itself), one
      that lands before its first step, or an interrupt its tick
      swallowed still ends it.

    ``tick`` is a plain callable or a generator function, told apart
    once, here; a plain tick's return value is ignored.  ``phase`` is a
    one-shot offset ahead of the first round.  ``tick_first`` makes a
    round tick, then wait (a keepalive announces itself at once)
    instead of wait, then tick.  ``interval`` and ``phase`` are read
    when the loop reaches them, so an owner may assign either later.
    """

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        tick: Callable[[], Any],
        name: str,
        phase: float = 0.0,
        tick_first: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"{name}: interval must be positive")
        self.sim = sim
        self.interval = interval
        self.name = name
        self.phase = phase
        self.tick_first = tick_first
        self._tick = tick
        self._yields = isgeneratorfunction(tick)
        self._proc = None

    @property
    def running(self) -> bool:
        """True while a started, not stopped, loop process is alive."""
        return self._proc is not None and self._proc.is_alive

    def start(self) -> None:
        if not self.running:
            self._proc = self.sim.process(self._loop(), name=self.name)

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        # only a parked loop needs waking; any other reads ``_proc``
        # before its next round
        if proc is not None and proc.is_waiting:
            proc.interrupt("stop")

    def _loop(self) -> Generator:
        sim = self.sim
        me = sim.active_process
        # ahead of the first tick: the phase, then (unless the loop
        # ticks first) one interval; ahead of every later one, one
        # interval
        delays = [self.phase] if self.phase > 0.0 else []
        if not self.tick_first:
            delays.append(self.interval)
        wait = None
        try:
            while self._proc is me:
                for delay in delays:
                    wait = sim.timeout(delay)
                    yield wait
                    # let go of the fired wait: the kernel recycles a
                    # timeout nothing else refers to
                    wait = None
                if self._yields:
                    yield from self._tick()
                else:
                    self._tick()
                delays = (self.interval,)
        except Interrupt:
            pass
        finally:
            if wait is not None:
                sim.cancel(wait)


class StorePut(Event):
    """Pending put of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, sim: "Simulator", item: Any) -> None:
        super().__init__(sim)
        self.item = item


class StoreGet(Event):
    """Pending get from a store; fires with the item as value."""

    __slots__ = ()


class Store:
    """A FIFO item buffer with optional capacity bound.

    ``put(item)`` blocks (the returned event stays pending) while the
    buffer is full; ``get()`` blocks while it is empty.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        #: FIFO buffer; a deque so the hot ``get()`` path pops the head
        #: in O(1) instead of ``list.pop(0)``'s O(n) shift
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; event fires when the item is accepted."""
        event = StorePut(self.sim, item)
        self._putters.append(event)
        self._settle()
        return event

    def get(self) -> StoreGet:
        """Remove the oldest item; event fires with the item."""
        event = StoreGet(self.sim)
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._getters and self.items:
                self._getters.popleft().succeed(self.items.popleft())
                progressed = True


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, sim: "Simulator", resource: "Resource") -> None:
        super().__init__(sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable servers with a FIFO wait queue."""

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.queue)

    def request(self) -> Request:
        """Claim a slot; the event fires once a slot is granted."""
        event = Request(self.sim, self)
        self.queue.append(event)
        self._grant()
        return event

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``.

        Releasing a request that was never granted cancels it from the
        wait queue instead (used when a waiter is interrupted).
        """
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
        self._grant()

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed(request)
