"""Deployment handlers: Expect and JavaCoG (paper §3.4, Table 1).

A *deployment handler* executes a deploy-file's steps on the target
site.  The paper implements two transports and measures both:

* **Expect** — "an Expect-based virtual terminal used to automatically
  interact with operating systems of different Grid sites".  It logs in
  once (glogin / local shell), answers interactive installer prompts
  from the deploy-file's send/expect patterns, and runs the steps
  directly in the acquired shell.  One-time session overhead, no
  per-step cost.

* **JavaCoG** — each step is issued as a GRAM job and file movement
  goes through the Java CoG GridFTP client.  Heavy client start-up
  plus a *per-step* GRAM submission overhead; this is why Table 1
  shows JavaCoG consistently slower ("Expect is more efficient than
  Java CoG").

Both handlers execute the identical recipe semantics: ``mkdir`` steps
create directories, ``download`` steps pull URLs through GridFTP,
``expand``/``compute`` steps burn the declared CPU demand on the
target host and materialise their ``Produces`` manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List

from repro.glare.deployfile import BuildRecipe, BuildStep
from repro.glare.errors import DeploymentFailed
from repro.gram.jobs import JobSpec
from repro.gridftp.service import GridFtpService, TransferError
from repro.net.interceptors import RetryPolicy
from repro.site.gridsite import GridSite
from repro.site.filesystem import FilesystemError, join as fs_join


@dataclass
class StepResult:
    """Outcome and timing of one executed step."""

    name: str
    kind: str
    started_at: float
    finished_at: float
    ok: bool = True
    error: str = ""

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class InstallReport:
    """What an installation cost, broken down as in the paper's Table 1."""

    recipe: str
    site: str
    handler: str
    success: bool = False
    error: str = ""
    communication_time: float = 0.0  # downloads / transfers
    installation_time: float = 0.0  # expand + configure + make + install
    handler_overhead: float = 0.0  # session acquisition (Expect / CoG start-up)
    steps: List[StepResult] = field(default_factory=list)
    produced_files: List[str] = field(default_factory=list)
    homes: List[str] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.communication_time + self.installation_time + self.handler_overhead


class DeploymentHandler:
    """Shared step-execution machinery; subclasses model the transport."""

    HANDLER_NAME = "base"
    #: one-time session acquisition cost (seconds)
    session_overhead = 0.0
    #: extra cost charged before every individual step
    per_step_overhead = 0.0
    #: per-download client overhead on top of the GridFTP transfer
    per_download_overhead = 0.0
    #: extra wait per download as a multiple of the transfer time —
    #: models a client stack that streams less efficiently than the
    #: native globus-url-copy (no parallel TCP streams in Java CoG)
    download_slowdown = 0.0
    #: retry policy per download step: transient GridFTP failures
    #: (data channel resets) are retried with a linear backoff;
    #: permanent errors (md5 mismatch, unknown URL) are not
    download_retry = RetryPolicy(attempts=3, base_delay=0.5, backoff="linear")

    def __init__(self, site: GridSite, gridftp: GridFtpService) -> None:
        if gridftp.node_name != site.name:
            raise ValueError("handler needs the target site's own GridFTP endpoint")
        self.site = site
        self.gridftp = gridftp

    @property
    def sim(self):
        return self.site.sim

    @property
    def obs(self):
        """Observability bundle (via the colocated GridFTP service)."""
        return self.gridftp.obs

    # -- main entry -------------------------------------------------------------

    def execute(self, recipe: BuildRecipe) -> Generator:
        """Run the deploy-file on the target site; yields an InstallReport."""
        report = InstallReport(
            recipe=recipe.name, site=self.site.name, handler=self.HANDLER_NAME
        )
        env = dict(recipe.collected_env())

        overhead_start = self.sim.now
        yield from self.acquire_session()
        report.handler_overhead += self.sim.now - overhead_start

        subst = self.site.substituter(env)
        for step in recipe.ordered_steps():
            if not step.env.items() <= env.items():
                # Env definitions persist downstream; only a step that
                # redefines a variable needs another substituter
                env.update(step.env)
                subst = self.site.substituter(env)
            started = self.sim.now
            if self.per_step_overhead > 0:
                yield from self.before_step(step)
                report.handler_overhead += self.sim.now - started
            phase_start = self.sim.now
            try:
                with self.obs.tracer.span(
                    f"step:{step.kind}:{step.name}", site=self.site.name
                ):
                    yield from self._run_step(step, subst, report)
            except (TransferError, FilesystemError, DeploymentFailed) as error:
                report.steps.append(
                    StepResult(
                        name=step.name, kind=step.kind, started_at=started,
                        finished_at=self.sim.now, ok=False, error=str(error),
                    )
                )
                report.success = False
                report.error = f"step {step.name!r} failed: {error}"
                return report
            elapsed = self.sim.now - phase_start
            self.obs.metrics.histogram(
                "handler.step", handler=self.HANDLER_NAME, kind=step.kind
            ).observe(elapsed)
            if step.kind == "download":
                report.communication_time += elapsed
            else:
                report.installation_time += elapsed
            report.steps.append(
                StepResult(
                    name=step.name, kind=step.kind, started_at=started,
                    finished_at=self.sim.now,
                )
            )

        report.success = True
        return report

    # -- transport hooks (overridden by subclasses) --------------------------------

    def acquire_session(self) -> Generator:
        """Log in / start the client; charged once per installation."""
        if self.session_overhead > 0:
            yield self.sim.timeout(self.session_overhead)

    def before_step(self, step: BuildStep) -> Generator:
        """Per-step transport cost (GRAM submission for JavaCoG)."""
        if self.per_step_overhead > 0:
            yield self.sim.timeout(self.per_step_overhead)

    def run_compute(self, step: BuildStep, demand: float) -> Generator:
        """Burn a compute step's CPU demand on the target host."""
        yield from self.site.cpu.execute(demand)

    # -- step semantics -------------------------------------------------------------

    def _run_step(
        self, step: BuildStep, subst: Callable[[str], str], report: InstallReport
    ) -> Generator:
        base_dir = subst(step.base_dir) if step.base_dir else "/tmp"

        if step.dialogs:
            yield from self._handle_dialogs(step)

        if step.kind == "mkdir":
            for argument in step.props("argument") or [base_dir]:
                self.site.fs.mkdir_p(subst(argument))
            yield from self.run_compute(step, max(step.demand, 0.01))
            return

        if step.kind == "download":
            source = subst(step.prop("source"))
            destination = subst(step.prop("destination"))
            if destination.startswith("file://"):
                destination = destination[len("file://"):]
                while destination.startswith("//"):
                    destination = destination[1:]
            if not source or not destination:
                raise DeploymentFailed(
                    f"download step {step.name!r} needs source and destination"
                )
            if self.per_download_overhead > 0:
                yield self.sim.timeout(self.per_download_overhead)
            attempt = 0
            while True:
                attempt += 1
                transfer_start = self.sim.now
                try:
                    yield from self.gridftp.fetch_url(
                        source, destination, expected_md5=step.prop("md5sum")
                    )
                    break
                except TransferError as error:
                    if not error.transient or attempt >= self.download_retry.attempts:
                        raise
                    # back off per the policy and retry the data channel;
                    # retries are counted apart from the failures that
                    # caused them (a burned final attempt retries nothing)
                    self.gridftp.transfer_retries += 1
                    yield self.sim.timeout(self.download_retry.backoff_delay(attempt))
            if self.download_slowdown > 0:
                yield self.sim.timeout(
                    (self.sim.now - transfer_start) * self.download_slowdown
                )
            return

        if step.kind == "expand":
            archives = step.props("argument")
            if archives:
                archive = subst(archives[0])
            else:
                raise DeploymentFailed(f"expand step {step.name!r} needs an argument")
            contents = [(p.path, p.size, p.executable) for p in step.produces]
            self.site.fs.expand_archive(
                archive, base_dir, contents, created_at=self.sim.now
            )
            # untar cost: roughly proportional to bytes written
            size = sum(p.size for p in step.produces)
            yield from self.run_compute(step, max(step.demand, size / 2e8))
            return

        # compute: configure / make / make install / ant ...
        yield from self.run_compute(step, step.demand)
        for produced in step.produces:
            self.site.fs.put_file(
                fs_join(base_dir, subst(produced.path)),
                size=produced.size,
                executable=produced.executable,
                created_at=self.sim.now,
            )
            report.produced_files.append(fs_join(base_dir, subst(produced.path)))

    def _handle_dialogs(self, step: BuildStep) -> Generator:
        """Interactive installer prompts."""
        for dialog in step.dialogs:
            yield self.sim.timeout(dialog.delay)


class ExpectHandler(DeploymentHandler):
    """Expect-driven virtual terminal (glogin / local shell)."""

    HANDLER_NAME = "expect"
    session_overhead = 2.1  # Table 1: "Expect Overhead" = 2,100 ms
    per_step_overhead = 0.0
    per_download_overhead = 0.05  # shell-driven globus-url-copy start


class JavaCoGHandler(DeploymentHandler):
    """Java CoG client: every step is a GRAM job.

    Parameters
    ----------
    network:
        Needed to submit GRAM jobs to the target site.
    caller:
        Site name the CoG client runs on (the provisioning site).
    """

    HANDLER_NAME = "javacog"
    session_overhead = 9.8  # Table 1: "JavaCoG Overhead" = 9,800 ms
    per_step_overhead = 0.0  # charged through real GRAM submissions instead
    per_download_overhead = 0.4  # CoG GridFTP client instantiation
    download_slowdown = 2.0  # single-stream Java I/O vs parallel streams

    def __init__(self, site: GridSite, gridftp: GridFtpService, network, caller: str) -> None:
        super().__init__(site, gridftp)
        self.network = network
        self.caller = caller

    def run_compute(self, step: BuildStep, demand: float) -> Generator:
        """Submit the step as a GRAM job and wait for it."""
        job_id = yield from self.network.call(
            self.caller, self.site.name, "gram", "submit",
            payload=JobSpec(command=step.task or step.name, cpu_demand=demand,
                            walltime_limit=max(step.timeout, demand * 3 + 30)),
        )
        snapshot = yield from self.network.call(
            self.caller, self.site.name, "gram", "wait", payload=job_id
        )
        if snapshot["state"] != "done":
            raise DeploymentFailed(
                f"GRAM job for step {step.name!r} ended {snapshot['state']}: "
                f"{snapshot['error']}"
            )

    def _handle_dialogs(self, step: BuildStep) -> Generator:
        """CoG cannot drive interactive installers; assume the recipe
        provided non-interactive flags, at a small per-prompt cost for
        the extra scripting."""
        for _ in step.dialogs:
            yield self.sim.timeout(0.5)
