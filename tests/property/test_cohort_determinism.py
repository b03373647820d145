"""Property: the cohort-batched ``run()`` fast loop ≡ per-event ``step()``.

The bucket-queue agenda drains same-timestamp cohorts in one clock
update (see the kernel module docstring); these tests pin the contract
that batching is *invisible*: for seeded workloads built almost
entirely out of tied timestamps, the fast loop must dispatch the exact
event sequence the per-event ``step()`` debug path does — including
urgent preemption inside a cohort and the Timeout free-list recycling
along the way — and the kernel-trace sha256 must agree.

The cancel-heavy half does the same for ``Simulator.cancel``, which
deletes lazily: the timestamp of a withdrawn event stays in the time
heap until it surfaces.  Both loops, ``peek()`` and ``run(until=t)``
must skip such stale timestamps identically, and a cancelled timeout
somebody still references must never come back out of the free list.
"""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from repro.simkernel import Interrupt, Simulator
from repro.simkernel.kernel import EmptySchedule

#: heavy repetition → most timestamps collide into multi-event cohorts
DELAY_GRID = (0.25, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0)

_ADDR = re.compile(r"0x[0-9a-f]+")


def _schedule(seed: int, n_procs: int = 12, ticks: int = 40):
    rng = random.Random(seed)
    return [[rng.choice(DELAY_GRID) for _ in range(ticks)]
            for _ in range(n_procs)]


def _build(sim: Simulator, order: list, schedule) -> None:
    """A cohort-heavy workload: tickers, bare events, an interrupt.

    Everything lands on grid timestamps, so cohorts of a dozen events
    are the norm, and the interrupt exercises urgent preemption in the
    middle of a cohort drain.
    """

    def ticker(pid: int):
        for tick, delay in enumerate(schedule[pid]):
            yield sim.timeout(delay)
            order.append(("tick", pid, tick, sim.now))

    for pid in range(len(schedule)):
        sim.process(ticker(pid), name=f"ticker-{pid}")

    # bare events succeeding straight into the agenda (no process)
    for index, delay in enumerate((0.5, 1.0, 1.0, 2.5, 2.5, 2.5)):
        event = sim.event(name=f"herald-{index}")
        event.subscribe(
            lambda e, index=index: order.append(("herald", index, sim.now))
        )
        event.succeed(value=index, delay=delay)

    def victim():
        try:
            yield sim.timeout(1000.0)
        except Interrupt:
            order.append(("interrupted", sim.now))
            yield sim.timeout(0.5)
            order.append(("recovered", sim.now))

    target = sim.process(victim(), name="victim")

    def attacker():
        # fires at t=3.0, a grid timestamp with a fat cohort: the
        # urgent interrupt must preempt the cohort's remaining events
        yield sim.timeout(3.0)
        order.append(("attack", sim.now))
        target.interrupt("now")

    sim.process(attacker(), name="attacker")


def _drain_by_step(sim: Simulator) -> None:
    while True:
        try:
            sim.step()
        except EmptySchedule:
            return


def _digest(order: list) -> str:
    return hashlib.sha256(repr(order).encode()).hexdigest()


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_run_matches_step_order_and_recycling(seed):
    schedule = _schedule(seed)

    fast_order: list = []
    fast_sim = Simulator(seed=seed)
    _build(fast_sim, fast_order, schedule)
    fast_sim.run()

    step_order: list = []
    step_sim = Simulator(seed=seed)
    _build(step_sim, step_order, schedule)
    _drain_by_step(step_sim)

    assert fast_order == step_order
    assert _digest(fast_order) == _digest(step_order)
    assert fast_sim.now == step_sim.now
    # recycling engaged in the fast loop without perturbing the order
    # above (eligibility is refcount-sensitive, so the two pools need
    # not hold the same timeouts — only the dispatch order is
    # contractual)
    assert fast_sim._timeout_pool, "cohort drain never recycled a timeout"


@pytest.mark.parametrize("seed", [3, 11])
def test_until_event_form_matches_step(seed):
    schedule = _schedule(seed, n_procs=8, ticks=25)

    def build_with_target(sim, order):
        _build(sim, order, schedule)
        target = sim.event(name="target")
        target.subscribe(lambda e: order.append(("target", sim.now)))
        target.succeed(value="done", delay=4.5)
        return target

    fast_order: list = []
    fast_sim = Simulator(seed=seed)
    fast_target = build_with_target(fast_sim, fast_order)
    assert fast_sim.run(until=fast_target) == "done"

    step_order: list = []
    step_sim = Simulator(seed=seed)
    step_target = build_with_target(step_sim, step_order)
    while not step_target.processed:
        step_sim.step()

    # the fast loop stopped right after the target's dispatch — not a
    # single event earlier or later than the per-event path
    assert fast_order == step_order
    assert fast_sim.now == step_sim.now


def _traced_digest(build, drive) -> str:
    """sha256 of the kernel trace of ``build``'s workload driven by ``drive``."""
    sim = Simulator(seed=5, trace=True)
    build(sim, [])
    drive(sim)
    normalized = "\n".join(
        f"{when:.9f} {_ADDR.sub('0x0', label)}"
        for when, label in sim.trace_log
    )
    return hashlib.sha256(normalized.encode()).hexdigest()


def test_trace_sha_matches_between_run_and_step():
    """The traced event log hashes identically however it is driven."""
    schedule = _schedule(seed=5)

    def build(sim, order):
        _build(sim, order, schedule)

    assert (_traced_digest(build, lambda sim: sim.run())
            == _traced_digest(build, _drain_by_step))


def test_recycled_timeouts_are_reused():
    """A drained run leaves a pool that the next timeout() draws from."""
    sim = Simulator(seed=9)

    def burner():
        for _ in range(50):
            yield sim.timeout(0.5)

    sim.process(burner(), name="burner")
    sim.run()
    pool_len = len(sim._timeout_pool)
    assert pool_len > 0
    pooled = sim._timeout_pool[-1]
    fresh = sim.timeout(0.25, value="again")
    assert fresh is pooled  # identity reuse, not a new allocation
    assert len(sim._timeout_pool) == pool_len - 1
    assert fresh.delay == 0.25 and fresh._value == "again"


# -- cancel-heavy workloads ----------------------------------------------------

#: guard delays: grid values tie with tickers (cancel inside a cohort
#: list); the x.375 ones are alone on their timestamp (cancel a
#: singleton bucket, leaving a stale timestamp in the heap)
GUARD_GRID = (0.5, 1.0, 1.0, 2.0, 4.0, 0.375, 1.375, 3.375)


def _assert_peek_live(sim: Simulator) -> None:
    """``peek()`` names a timestamp that really has events, or inf."""
    upcoming = sim.peek()
    assert (upcoming == float("inf") or upcoming in sim._buckets
            or (sim._urgent and upcoming == sim.now))


def _build_cancels(sim: Simulator, order: list, seed: int) -> list:
    """Tickers plus processes that arm, withdraw and re-arm timeouts.

    Returns the list of withdrawn timeouts; it keeps every one of them
    referenced, so none may ever be handed out again by ``timeout()``.
    """
    rng = random.Random(seed)
    cancelled: list = []

    def timeout(delay: float):
        event = sim.timeout(delay)
        assert not any(event is dead for dead in cancelled), \
            "timeout() recycled a cancelled timeout that is still referenced"
        return event

    def ticker(pid: int, delays):
        for tick, delay in enumerate(delays):
            yield timeout(delay)
            order.append(("tick", pid, tick, sim.now))

    def guarded(pid: int, plan):
        # the RPC-deadline shape: arm a guard, work, withdraw the guard
        # unless it fired first (a tie fires it: it was scheduled first)
        for step, (deadline, work) in enumerate(plan):
            guard = timeout(deadline)
            guard.subscribe(
                lambda e, step=step: order.append(("expired", pid, step, sim.now))
            )
            yield timeout(work)
            withdrawn = sim.cancel(guard)
            assert withdrawn == (deadline > work)
            if withdrawn:
                cancelled.append(guard)
            order.append(("worked", pid, step, sim.now, withdrawn))
            _assert_peek_live(sim)

    def rescheduler(pid: int):
        for round_ in range(8):
            # alone on an off-grid timestamp; withdrawn, then the very
            # same timestamp is scheduled again (a second heap entry)
            doomed = timeout(3.125)
            first = timeout(1.0)
            tail = timeout(1.0)  # same cohort as ``first``, behind it
            tail.subscribe(lambda e: order.append(("tail fired", pid, sim.now)))
            yield first
            # withdraw an undispatched entry of the cohort being drained
            assert sim.cancel(tail) and sim.cancel(doomed)
            assert not sim.cancel(doomed)  # already withdrawn
            cancelled.extend((tail, doomed))
            again = timeout(2.125)
            assert again.when == doomed.when
            yield again
            order.append(("again", pid, round_, sim.now))
            _assert_peek_live(sim)

    for pid in range(6):
        sim.process(ticker(pid, [rng.choice(DELAY_GRID) for _ in range(40)]),
                    name=f"ticker-{pid}")
    for pid in range(6):
        plan = [(rng.choice(GUARD_GRID), rng.choice(DELAY_GRID)) for _ in range(25)]
        sim.process(guarded(pid, plan), name=f"guarded-{pid}")
    for pid in range(2):
        sim.process(rescheduler(pid), name=f"rescheduler-{pid}")
    return cancelled


def _assert_cancelled_stay_dead(sim: Simulator, cancelled: list) -> None:
    assert cancelled, "the workload never withdrew anything"
    assert not any(event.processed for event in cancelled)
    assert not any(event is dead for event in sim._timeout_pool for dead in cancelled)


@pytest.mark.parametrize("seed", [2, 13, 77])
def test_cancel_heavy_run_matches_step(seed):
    fast_order: list = []
    fast_sim = Simulator(seed=seed)
    fast_cancelled = _build_cancels(fast_sim, fast_order, seed)
    fast_sim.run()

    step_order: list = []
    step_sim = Simulator(seed=seed)
    step_cancelled = _build_cancels(step_sim, step_order, seed)
    _drain_by_step(step_sim)

    assert fast_order == step_order
    assert not any(entry[0] == "tail fired" for entry in fast_order)
    assert any(entry[0] == "expired" for entry in fast_order)
    # a stale timestamp never advances the clock: both loops stop at
    # the last event that really fired
    assert fast_sim.now == step_sim.now == max(entry[-2] if entry[0] == "worked"
                                               else entry[-1] for entry in fast_order)
    for sim, cancelled in ((fast_sim, fast_cancelled), (step_sim, step_cancelled)):
        assert sim.peek() == float("inf") and not sim._times
        _assert_cancelled_stay_dead(sim, cancelled)


def test_cancel_heavy_trace_sha_matches_between_run_and_step():
    def build(sim, order):
        _build_cancels(sim, order, seed=5)

    assert (_traced_digest(build, lambda sim: sim.run())
            == _traced_digest(build, _drain_by_step))


def test_cancel_then_run_until_past_it():
    """``run(until=t)`` slices skip withdrawn timestamps like ``step()`` does."""
    sliced_order: list = []
    sliced_sim = Simulator(seed=21)
    cancelled = _build_cancels(sliced_sim, sliced_order, seed=21)
    horizon = 0.0
    while sliced_sim.peek() != float("inf"):
        horizon += 0.75  # lands between, on and past withdrawn timestamps
        sliced_sim.run(until=horizon)
        assert sliced_sim.now == horizon
        _assert_peek_live(sliced_sim)
        assert sliced_sim.peek() > horizon
    _assert_cancelled_stay_dead(sliced_sim, cancelled)

    step_order: list = []
    step_sim = Simulator(seed=21)
    _build_cancels(step_sim, step_order, seed=21)
    _drain_by_step(step_sim)
    assert sliced_order == step_order

    # the bare case: a lone withdrawn timeout holds neither clock nor agenda
    sim = Simulator()
    doomed = sim.timeout(5.0)
    assert sim.cancel(doomed)
    assert sim.peek() == float("inf")
    sim.run(until=10.0)
    assert sim.now == 10.0 and not doomed.processed
    sim.run()
    assert sim.now == 10.0
