"""``CPU.execute`` under interruption: a core is never held by nobody."""

from repro.simkernel import CPU, Simulator
from repro.simkernel.errors import Interrupt


def job(cpu, demand, log, name):
    try:
        yield from cpu.execute(demand)
        log.append((name, "done", cpu.sim.now))
    except Interrupt:
        log.append((name, "interrupted", cpu.sim.now))


class TestInterruptedExecute:
    def test_interrupt_while_queued_withdraws_the_request(self):
        sim = Simulator()
        cpu = CPU(sim, cores=1)
        log = []
        sim.process(job(cpu, 1.0, log, "A"))       # runs 0 -> 1
        queued = sim.process(job(cpu, 1.0, log, "B"))

        def interrupter():
            yield sim.timeout(0.5)
            assert cpu.run_queue_length == 2
            queued.interrupt("deadline")

        sim.process(interrupter())
        sim.run()
        assert log == [("B", "interrupted", 0.5), ("A", "done", 1.0)]
        # B's request left the queue with it: the core is free again
        assert cpu.running == 0 and cpu.run_queue_length == 0
        sim.process(job(cpu, 1.0, log, "C"))
        sim.run()
        assert log[-1] == ("C", "done", 2.0)
        # only time a core was actually held counts as busy
        assert cpu.busy_time == 2.0 and cpu.jobs_completed == 2

    def test_interrupt_while_running_releases_the_core(self):
        sim = Simulator()
        cpu = CPU(sim, cores=1)
        log = []
        running = sim.process(job(cpu, 1.0, log, "A"))
        sim.process(job(cpu, 1.0, log, "B"))

        def interrupter():
            yield sim.timeout(0.25)
            running.interrupt("deadline")

        sim.process(interrupter())
        sim.run()
        assert log == [("A", "interrupted", 0.25), ("B", "done", 1.25)]
        assert cpu.running == 0 and cpu.busy_time == 1.25
