"""Shared workload machinery for the figure experiments.

Closed-loop clients, think-time requesters, notification sinks, the
synthetic activity-type population used by the registry/index
comparisons (Figs. 10/11/13), and the scenario content the extension
figures (14-19) stand their VOs up with: plain resolvable types with
one ACTIVE deployment, synthetic installable types, the recorder that
folds one resolution into a digest line, and the phase-booked
open-loop load of the two flash-crowd figures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.apps.catalog import _deployfile, _steps, _type_xml
from repro.glare.errors import CLIENT_ERRORS
from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
)
from repro.glare.rdm import RDM_SERVICE
from repro.load import CohortInjector, OpenLoopDriver, StreamStats
from repro.net.interceptors import RetryPolicy
from repro.obs.metrics import Histogram
from repro.simkernel import Simulator
from repro.wsrf.xmldoc import Element

_PLAIN_TYPE_XML = """
<ActivityTypeEntry name="{name}" kind="concrete">
  <Domain>{domain}</Domain>
  <Function name="run"><Input>data</Input><Output>result</Output></Function>
</ActivityTypeEntry>
"""


def plain_type_xml(name: str, domain: str) -> str:
    """A minimal concrete type document (no installation section)."""
    return _PLAIN_TYPE_XML.format(name=name, domain=domain)


def active_deployment(type_name: str, site: str) -> ActivityDeployment:
    """The one ACTIVE executable a served type has at ``site``."""
    lower = type_name.lower()
    return ActivityDeployment(
        name=f"{lower}-bin",
        type_name=type_name,
        kind=DeploymentKind.EXECUTABLE,
        site=site,
        path=f"/opt/deployments/{lower}/bin/run",
        home=f"/opt/deployments/{lower}",
        status=DeploymentStatus.ACTIVE,
    )


def placed(vo, deployment: ActivityDeployment) -> ActivityDeployment:
    """``deployment``, once its binary is on its site's disk: what makes
    an ACTIVE executable true before it is registered (otherwise the
    Deployment Status Monitor flags it FAILED and the audit refuses it)."""
    vo.stack(deployment.site).site.fs.put_file(deployment.path, size=1,
                                               executable=True)
    return deployment


def register_served_type(vo, site: str, type_name: str, domain: str) -> None:
    """Register a plain type and its ACTIVE deployment at ``site``."""
    vo.run_process(vo.client_call(
        site, "register_type",
        payload={"xml": plain_type_xml(type_name, domain)},
    ))
    vo.run_process(vo.client_call(
        site, "register_deployment",
        payload={"xml": placed(vo, active_deployment(type_name, site)).wire_xml()},
    ))


def serve_types(vo, server: str, prefix: str, count: int,
                domain: str) -> List[str]:
    """``count`` served types ``<prefix>NN`` on ``server``.

    Returns the deployment keys (for ``instantiate``), discovered the
    way a client would: one ``get_deployments`` per type.
    """
    keys: List[str] = []
    for index in range(count):
        type_name = f"{prefix}{index:02d}"
        register_served_type(vo, server, type_name, domain)
        wires = vo.run_process(vo.client_call(
            server, "get_deployments",
            payload={"type": type_name, "auto_deploy": False},
        ))
        keys.extend(sorted(str(w["epr"]["key"]) for w in wires))
    return keys


def publish_installable_type(
    vo,
    name: str,
    domain: str,
    archive_size: int,
    configure_demand: float,
    install_demand: float,
    binary_size: int,
) -> str:
    """Publish and register a synthetic on-demand type; returns its XML.

    One archive on the origin, a two-step build (configure, install one
    binary) in its deploy-file, the type registered at the community
    site — every install of it runs the real download/expand/build
    pipeline.
    """
    lower = name.lower()
    home = f"$DEPLOYMENT_DIR/{lower}/{lower}"
    archive_url = f"http://origin/archives/{lower}.tgz"
    deployfile_url = f"http://origin/deployfiles/{lower}.build"
    build_steps = _steps(home, [
        {"name": "Configure", "depends": "Expand", "task": "sh ./configure",
         "timeout": 60, "demand": configure_demand},
        {"name": "Install", "depends": "Configure", "task": "make install",
         "timeout": 120, "demand": install_demand,
         "produces": [(f"bin/{lower}", binary_size, True)]},
    ])
    type_xml = _type_xml(
        name, base="SyntheticService", domain=domain,
        functions='<Function name="run"><Input>data</Input><Output>result</Output></Function>',
        deployfile_url=deployfile_url,
    )
    vo.publish_archive(archive_url, archive_size,
                       md5sum=f"c0ffee{archive_size:x}")
    vo.publish_deployfile(
        deployfile_url,
        _deployfile(name, archive_url, archive_size, build_steps, home),
        md5sum="d41d8cd98f",
    )
    vo.run_process(vo.client_call(
        vo.community_site, "register_type", payload={"xml": type_xml},
    ))
    return type_xml


def resolve(vo, site: str, type_name: str, auto_deploy: bool = False,
            retry: Optional[RetryPolicy] = None) -> Generator:
    """One ``get_deployments`` from a client at ``site``, as a digest line.

    Returns the sorted deployment keys joined by ``,`` — or
    ``error:<Type>`` for any of :data:`CLIENT_ERRORS`.
    """
    try:
        wires = yield from vo.network.call(
            site, site, RDM_SERVICE, "get_deployments",
            payload={"type": type_name, "auto_deploy": auto_deploy},
            retry=retry,
        )
    except CLIENT_ERRORS as error:
        return f"error:{type(error).__name__}"
    return ",".join(sorted(str(w["epr"]["key"]) for w in wires))


def synthetic_type_doc(index: int) -> Element:
    """A realistic-size activity-type resource document (~14 nodes).

    Matches what the GLARE registries and the WS-MDS index actually
    aggregate: name, domain, base type, functions with I/O, benchmark
    entries, installation constraints.
    """
    doc = Element("ActivityTypeEntry",
                  attrib={"name": f"type{index:04d}", "kind": "concrete"})
    doc.make_child("Domain", text=f"domain{index % 7}")
    doc.make_child("BaseType", text=f"base{index % 11}")
    function = doc.make_child("Function", attrib={"name": "run"})
    function.make_child("Input", text="data")
    function.make_child("Output", text="result")
    doc.make_child("Benchmark", text="1.0", platform="Intel")
    installation = doc.make_child("Installation", mode="on-demand")
    constraints = installation.make_child("Constraints")
    constraints.make_child("platform", text="Intel")
    constraints.make_child("os", text="Linux")
    installation.make_child("DeployFile", url=f"http://x/t{index}.build")
    doc.make_child("Provider", text=f"provider{index % 3}")
    return doc


def synthetic_activity_type(index: int) -> ActivityType:
    """The model object corresponding to :func:`synthetic_type_doc`."""
    return ActivityType.from_xml(synthetic_type_doc(index))


@dataclass
class ClientStats:
    """What a load generator records — streaming, no per-request list.

    ``latency.total`` accumulates with the same left-to-right float
    additions ``sum(list)`` performed, so ``mean_response`` is
    *bit-identical* to a list-based mean (the perf fingerprints pin
    ``repr`` of fig10 means).
    """

    completed: int = 0
    failed: int = 0
    latency: Histogram = field(default_factory=Histogram)

    def observe(self, seconds: float) -> None:
        """Record one measured response time."""
        self.latency.observe(seconds)

    def merge(self, other: "ClientStats") -> None:
        self.completed += other.completed
        self.failed += other.failed
        self.latency.merge(other.latency)

    @property
    def observations(self) -> int:
        return self.latency.count

    @property
    def mean_response(self) -> float:
        if not self.latency.count:
            return float("nan")
        return self.latency.total / self.latency.count


def closed_loop_client(
    sim: Simulator,
    request: Callable[[], Generator],
    stats: ClientStats,
    until: float,
    think_time: float = 0.0,
    warmup: float = 0.0,
    think_sampler: Optional[Callable[[], float]] = None,
) -> Generator:
    """A client that issues requests back-to-back (optional think time).

    ``request`` is a zero-argument callable returning a fresh
    sub-generator per call.  Responses completed before ``warmup`` are
    not counted.  ``think_sampler`` overrides the fixed think time with
    a drawn one (e.g. exponential, for Poisson-like arrivals).  Starts
    no request at or after ``until``, the run's horizon.
    """
    while sim.now < until:
        start = sim.now
        try:
            yield from request()
            if sim.now >= warmup:
                stats.completed += 1
                stats.observe(sim.now - start)
        except CLIENT_ERRORS:
            if sim.now >= warmup:
                stats.failed += 1
        pause = think_sampler() if think_sampler is not None else think_time
        if pause > 0:
            yield sim.timeout(pause)


def spawn_clients(
    sim: Simulator,
    count: int,
    request_factory: Callable[[int], Callable[[], Generator]],
    until: float,
    think_time: float = 0.0,
    warmup: float = 0.0,
    exponential_think: bool = False,
) -> ClientStats:
    """Start ``count`` clients that end at ``until``; returns their shared stats.

    ``exponential_think`` draws each pause from an exponential with
    mean ``think_time`` (memoryless users => Poisson-like arrivals).
    """
    stats = ClientStats()
    for index in range(count):
        request = request_factory(index)
        sampler = None
        if exponential_think and think_time > 0:
            sampler = (lambda i=index: sim.rng.exponential(f"think-{i}", think_time))
        sim.process(
            closed_loop_client(sim, request, stats, until, think_time=think_time,
                               warmup=warmup, think_sampler=sampler),
            name=f"client-{index}",
        )
    return stats


def records_digest(records: Iterable[str]) -> str:
    """Order-insensitive sha256 of a run's per-request outcome lines."""
    return hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()


def tier_counts(vo, sites: Iterable[str]) -> Dict[str, int]:
    """Resolutions answered per tier, summed over the client ``sites``."""
    tiers = {"local": 0, "group": 0, "super-peer": 0, "on-demand": 0}
    for site in set(sites):
        manager = vo.rdm(site).request_manager
        tiers["local"] += manager.resolved_locally
        tiers["group"] += manager.resolved_in_group
        tiers["super-peer"] += manager.resolved_via_superpeer
        tiers["on-demand"] += manager.resolved_by_deployment
    return tiers


class PhasedLoad:
    """Open-loop traffic booked to the phase each request arrived in.

    ``phases`` are ``(name, start, end)`` windows on the workload clock,
    which starts at ``vo.sim.now`` (content setup consumed simulated
    time).  Every phase has its own :class:`StreamStats` and
    :class:`OpenLoopDriver`; op labels read ``<phase>|<kind>``.
    """

    def __init__(self, vo, phases: Sequence[Tuple[str, float, float]],
                 warmup: float, request_timeout: float, window: float) -> None:
        self.vo, self.phases, self.warmup = vo, phases, warmup
        self.t0 = vo.sim.now
        self.stats: Dict[str, StreamStats] = {
            name: StreamStats(window=window) for name, _, _ in phases}
        self.drivers = {
            name: OpenLoopDriver(vo, stats, request_timeout=request_timeout,
                                 warmup=self.t0 + warmup)
            for name, stats in self.stats.items()
        }

    def driver(self, op: str) -> OpenLoopDriver:
        """The driver of the phase an op label was fired in."""
        return self.drivers[op.split("|", 1)[0]]

    def inject(self, times, kind: Callable[[int], str],
               make_call: Callable[[str, int], Generator], tick: float) -> None:
        """Start a cohort injector over workload-clock arrival ``times``;
        ``kind(i)`` names arrival ``i``'s op class."""
        def fire(t: float, i: int) -> None:
            phase = self.phases[-1][0]
            for name, start, end in self.phases:
                if start <= t - self.t0 < end:
                    phase = name
                    break
            self.drivers[phase].fire(f"{phase}|{kind(i)}", t, i, make_call)

        CohortInjector(self.vo.sim, times + self.t0, fire, tick=tick).start()

    def measured(self) -> Iterator[Tuple[str, StreamStats, float]]:
        """``(phase, its stats, its post-warmup span)`` in phase order."""
        for name, start, end in self.phases:
            yield name, self.stats[name], end - max(start, self.warmup)

    def fingerprint(self) -> str:
        return "|".join(f"{name}:{stats.fingerprint()}"
                        for name, stats in self.stats.items())
