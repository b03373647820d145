"""A handed-over core starts its job on the spot.

A release triggers the longest waiter's grant with the service time as
its delay, so a queued job's process is resumed once, at completion,
and no zero-delay grant crosses the agenda at the hand-off instant.
"""

from repro.simkernel import CPU, Simulator


class Counted:
    """A process body that counts its resumes (``send`` / ``throw``)."""

    def __init__(self, generator):
        self.generator = generator
        self.resumes = 0

    def send(self, value):
        self.resumes += 1
        return self.generator.send(value)

    def throw(self, error):
        self.resumes += 1
        return self.generator.throw(error)


def test_a_queued_job_is_resumed_once_at_completion():
    sim = Simulator(trace=True)
    cpu = CPU(sim, cores=1)
    done = []

    def job(name):
        yield from cpu.execute(1.0)
        done.append((name, sim.now))

    first = Counted(job("first"))
    queued = Counted(job("queued"))
    sim.process(first)
    sim.process(queued)
    sim.run()
    assert done == [("first", 1.0), ("queued", 2.0)]
    # its first step, then completion: nothing in between
    assert first.resumes == queued.resumes == 2
    # at the hand-off instant only the first job's service time fires
    at_hand_off = [entry for at, entry in sim.trace_log if at == 1.0]
    assert len(at_hand_off) == 1 and "timeout" in at_hand_off[0]
    assert cpu.busy_time == 2.0 and cpu.jobs_completed == 2
