"""The CPU station against its reference: the claim that trips the agenda.

:class:`ReferenceCPU` is ``CPU`` as it was while every claim — a free
core included — went through ``Resource.request()`` and one zero-delay
round trip over the agenda.  ``CPU.execute`` takes a free core in the
caller's own step instead; these tests hold the two to the same
per-job outcomes, completion times and station accounting on generated
schedules, with interrupts aimed at every window a job passes through.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel import CPU, Resource, Simulator
from repro.simkernel.errors import Interrupt


class ReferenceCPU:
    """The station over ``Resource``: one agenda trip per claim."""

    def __init__(self, sim, cores=1, speed=1.0):
        self.sim = sim
        self.cores = cores
        self.speed = speed
        self._resource = Resource(sim, capacity=cores)
        self.busy_time = 0.0
        self.jobs_completed = 0

    @property
    def run_queue_length(self):
        return self._resource.count + self._resource.queue_length

    @property
    def running(self):
        return self._resource.count

    def execute(self, demand):
        if demand < 0:
            raise ValueError("demand must be non-negative")
        request = self._resource.request()
        start = None
        try:
            yield request
            start = self.sim.now
            yield self.sim.timeout(demand / self.speed)
            self.jobs_completed += 1
        finally:
            if start is not None:
                self.busy_time += self.sim.now - start
            self._resource.release(request)


def run_schedule(cpu_cls, cores, jobs, interrupts, kills=()):
    """Play one schedule; return what the station and its jobs did.

    ``jobs`` is ``[(arrival, demand)]`` and ``interrupts`` is
    ``[(job, after, late)]`` — aimed at ``job``, ``after`` its arrival —
    all times on the integer grid so that arrivals, completions and
    interrupts keep landing in one instant.  ``kills`` is ``[(job,
    victim)]``: ``job`` interrupts ``victim`` in the very step it
    completes in, i.e. right after releasing its core — when the victim
    was next in line, it has just been handed that core.

    Who goes first *inside* an instant is the one thing the two
    stations may order differently, so the schedule pins it from
    outside: interrupters are spawned before the jobs and jobs arrive
    at t >= 1, which puts every interrupter's wake-up ahead of that
    instant's arrivals and completions.  An early interrupter acts
    there — its target still queued, or still running a job due to end
    in this very instant.  A ``late`` one takes a further zero-delay
    hop, which lands after the instant's arrivals and completions but
    ahead of everything they triggered: its target has been handed a
    core and has not resumed yet (or, having found a free core, is
    still waiting out the reference's agenda trip).
    """
    sim = Simulator()
    cpu = cpu_cls(sim, cores=cores)
    log = []
    inside = {}  # job name -> its process, while it is inside execute()

    def interrupt(name):
        target = inside.pop(name, None)  # at most one interrupt per job
        if target is not None:
            target.interrupt("deadline")

    def job(name, arrival, demand):
        yield sim.timeout(arrival)
        inside[name] = sim.active_process
        try:
            yield from cpu.execute(demand)
            log.append((sim.now, name, "done"))
        except Interrupt:
            log.append((sim.now, name, "interrupted"))
            return
        finally:
            inside.pop(name, None)
        for killer, victim in kills:
            if killer % len(jobs) == name:
                interrupt(victim % len(jobs))

    def interrupter(name, at, late):
        yield sim.timeout(at)
        if late:
            yield sim.timeout(0)
        interrupt(name)

    aimed = [(job % len(jobs), jobs[job % len(jobs)][0] + after, late)
             for job, after, late in interrupts]
    for target, at, late in aimed:
        sim.process(interrupter(target, at, late))
    for name, (arrival, demand) in enumerate(jobs):
        sim.process(job(name, arrival, demand))

    horizon = max([max(arrival for arrival, _ in jobs) + sum(d for _, d in jobs)]
                  + [at for _, at, _ in aimed])
    samples = []
    for instant in range(horizon + 1):
        # nothing is scheduled off the grid: this is the state each
        # instant leaves behind
        sim.run(until=instant + 0.5)
        samples.append((cpu.running, cpu.run_queue_length,
                        cpu.busy_time, cpu.jobs_completed))
    assert sim.peek() == float("inf") and not inside
    assert cpu.running == 0 and cpu.run_queue_length == 0
    return log, samples


schedules = st.tuples(
    st.sampled_from([1, 1, 2, 2, 3, 4]),  # contention is the point
    st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                       st.integers(min_value=0, max_value=3)),
             min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                       st.integers(min_value=0, max_value=4),
                       st.booleans()),
             max_size=8),
    st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                       st.integers(min_value=0, max_value=7)),
             max_size=4),
)


@given(schedules)
# queued, then interrupted in the queue
@example((1, [(1, 2), (1, 2), (2, 1)], [(1, 1, False)], []))
# interrupted while running, in the instant it was due to complete
@example((1, [(1, 2), (1, 2)], [(0, 2, False)], []))
# the hand-off instant: job 0 ends at t=3, job 1 is handed the core and
# interrupted before it resumes; the core must reach job 2 at t=3
@example((1, [(1, 2), (1, 2), (2, 1)], [(1, 2, True)], []))
# ... and again when the job it is passed on to is hit in turn
@example((1, [(1, 2), (1, 2), (2, 1), (2, 0)], [(1, 2, True), (2, 1, True)], []))
# a free core taken at t=2 and lost in the same instant; zero demands
@example((2, [(2, 0), (2, 0), (2, 3), (2, 0)], [(2, 0, True), (0, 0, True)], []))
# the same window from inside the releasing step: job 0 ends, job 1 is
# handed its core and killed by job 0 before it resumes
@example((1, [(1, 1), (1, 1), (1, 1)], [], [(0, 1)]))
@settings(max_examples=300, deadline=None)
def test_station_matches_its_reference(schedule):
    log, samples = run_schedule(CPU, *schedule)
    ref_log, ref_samples = run_schedule(ReferenceCPU, *schedule)
    # Per job the same outcome at the same time, hence per instant the
    # same multiset of completions.  The order *inside* an instant is
    # deliberately not compared: a job that finds a free core schedules
    # its service time one agenda trip earlier than the reference, so
    # two jobs ending in the same instant may finish in either order.
    assert sorted(log) == sorted(ref_log)
    assert len(log) == len(schedule[1])
    # running, run-queue length, busy time and completions, as every
    # instant leaves them
    assert samples == ref_samples


def test_hand_off_instant_is_reached_and_the_core_is_passed_on():
    """The window the generated schedules must not miss, spelled out."""
    jobs = [(1, 2), (1, 2), (2, 1)]
    for cpu_cls in (CPU, ReferenceCPU):
        log, samples = run_schedule(cpu_cls, 1, jobs, [(1, 2, True)])
        assert log == [(3.0, 0, "done"), (3.0, 1, "interrupted"),
                       (4.0, 2, "done")]
        # t=3 leaves job 2 running alone; job 1 never held the core
        # long enough to count as busy
        assert samples[3] == (1, 1, 2.0, 1)
        assert samples[4] == (0, 0, 3.0, 2)


def test_negative_demand_raises_before_any_core_is_taken():
    sim = Simulator()
    cpu = CPU(sim, cores=1)
    claim = cpu.execute(-1.0)
    with pytest.raises(ValueError):
        next(claim)
    assert cpu.running == 0 and cpu.run_queue_length == 0
    assert sim.peek() == float("inf")
