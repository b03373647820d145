"""The GRAM job-manager service deployed on every Grid site.

Operations
----------
``submit``  — accept a :class:`JobSpec`, pay the submission overhead,
              start the job on the site CPU, return the job id.
``status``  — poll a job's state snapshot.
``wait``    — block until the job reaches a terminal state; returns the
              snapshot (raising semantics stay with the caller — a
              FAILED job is reported, not raised).
``cancel``  — interrupt a pending/active job.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.gram.jobs import Job, JobSpec, JobState
from repro.net.message import Message
from repro.net.service import Service
from repro.simkernel.errors import Interrupt


class UnknownJob(Exception):
    """Status/wait/cancel against a job id this site never saw."""


class GramService(Service):
    """Per-site job manager with a per-job submission overhead.

    Parameters
    ----------
    submission_overhead:
        CPU-seconds of job-manager work per submission (parsing the
        RSL, staging, spawning).  GT2/GT4 GRAM measured in the seconds
        range; this constant is what makes the JavaCoG deployment path
        slower than Expect in the paper's Table 1.
    """

    SERVICE_NAME = "gram"

    def __init__(self, network, node_name, submission_overhead: float = 1.0) -> None:
        super().__init__(network, node_name)
        self.submission_overhead = submission_overhead
        self.jobs: Dict[int, Job] = {}
        self._done_events: Dict[int, object] = {}
        self._runners: Dict[int, object] = {}
        self.jobs_submitted = 0

    # -- operations --------------------------------------------------------

    def op_submit(self, message: Message) -> Generator:
        spec = message.payload
        if not isinstance(spec, JobSpec):
            raise TypeError(f"submit payload must be a JobSpec, got {type(spec).__name__}")
        with self.obs.tracer.span(
            "gram:submit", site=self.node_name, command=spec.command
        ):
            yield from self.compute(self.submission_overhead)
        job = Job(spec=spec, submitter=message.src, submitted_at=self.sim.now)
        self.jobs[job.job_id] = job
        self._done_events[job.job_id] = self.sim.event(name=f"job-{job.job_id}-done")
        self._runners[job.job_id] = self.sim.process(
            self._run_job(job), name=f"gram-job-{job.job_id}"
        )
        self.jobs_submitted += 1
        return job.job_id

    def op_status(self, message: Message) -> Generator:
        job = self._find(message.payload)
        yield from self.compute(0.0005)
        return job.snapshot()

    def op_wait(self, message: Message) -> Generator:
        job = self._find(message.payload)
        if not job.state.is_terminal():
            yield self._done_events[job.job_id]
        return job.snapshot()

    def op_cancel(self, message: Message) -> Generator:
        job = self._find(message.payload)
        yield from self.compute(0.0005)
        if job.state.is_terminal():
            return job.snapshot()
        runner = self._runners.get(job.job_id)
        if runner is not None and runner.is_alive:
            runner.interrupt("cancelled")
        return job.snapshot()

    # -- execution ------------------------------------------------------------

    def _find(self, job_id) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no job {job_id!r} on {self.node_name}")
        return job

    def _finish(self, job: Job, state: JobState, exit_code: int, error: str = "") -> None:
        job.state = state
        job.finished_at = self.sim.now
        job.exit_code = exit_code
        job.error = error
        done = self._done_events.pop(job.job_id, None)
        if done is not None and not done.triggered:
            done.succeed(job.snapshot())
        self._runners.pop(job.job_id, None)

    def _run_job(self, job: Job) -> Generator:
        obs = self.obs
        with obs.tracer.span(
            "gram:job", site=self.node_name, job_id=job.job_id,
            command=job.spec.command,
        ) as span:
            try:
                job.state = JobState.ACTIVE
                job.started_at = self.sim.now
                work = self.sim.process(
                    self.compute(job.spec.cpu_demand), name=f"job-{job.job_id}-work"
                )
                if job.spec.walltime_limit is not None:
                    deadline = self.sim.timeout(job.spec.walltime_limit)
                    yield self.sim.any_of([work, deadline])
                    if not work.triggered:
                        work.interrupt("walltime exceeded")
                        work.defused = True
                        self._finish(job, JobState.FAILED, 152, "walltime limit exceeded")
                        return
                else:
                    yield work
                if job.spec.fail:
                    self._finish(job, JobState.FAILED, 1, "job reported failure")
                else:
                    self._finish(job, JobState.DONE, 0)
            except Interrupt:
                self._finish(job, JobState.CANCELLED, 130, "cancelled")
            finally:
                span.set_attr("state", job.state.value)
                if job.started_at is not None and job.finished_at is not None:
                    obs.metrics.histogram("gram.job_duration", site=self.node_name).observe(
                        job.finished_at - job.started_at
                    )
