"""Shared workload machinery for the figure experiments.

Closed-loop clients, think-time requesters, notification sinks, the
synthetic activity-type population used by the registry/index
comparisons (Figs. 10/11/13), and the scenario content the extension
figures (14-19) stand their VOs up with: plain resolvable types with
one ACTIVE deployment, synthetic installable types, the recorder that
folds one resolution into a digest line, and the open-loop scenario
that figs. 18 and 19 declare their runs over.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.apps.catalog import _deployfile, _steps, _type_xml
from repro.glare.errors import CLIENT_ERRORS
from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
)
from repro.glare.rdm import RDM_SERVICE
from repro.load import CohortInjector, OpenLoopDriver, OpStats, StreamStats, TrafficMix
from repro.net.interceptors import RetryPolicy
from repro.obs.metrics import Histogram
from repro.simkernel import Simulator
from repro.vo import VOConfig
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


#: arrival quantisation grid (cohort width) of the open-loop figures
TICK = 0.005

#: goodput window for the streaming per-window counters
WINDOW = 2.0

#: per-request deadline; overload past it surfaces as RpcTimeout
REQUEST_TIMEOUT = 8.0

#: post-horizon drain so in-flight requests resolve or time out
DRAIN = REQUEST_TIMEOUT + 4.0


class OpenLoopScenario:
    """One open-loop run of the extension figures: the VO shape, the
    served content, the phases and the arrival streams.

    ``vo`` is built from :meth:`config`.  ``content(vo, server)`` stands
    the served content up on ``server``, the second site, and returns
    its deployment keys; every other site is a client.  ``phases`` are
    ``(name, start, end)`` windows on the workload clock, which starts
    at ``t0``, once the content is up (setup consumed simulated time),
    and runs to the last phase's end plus ``drain``.  Every phase has
    its own :class:`StreamStats` and :class:`OpenLoopDriver`; an
    arrival is booked to the phase it arrived in, and its op label
    reads ``<phase>|<kind>``, or the bare kind when there is one phase.
    """

    def __init__(self, vo, content: Callable[[object, str], List[str]],
                 phases: Sequence[Tuple[str, float, float]] = (),
                 warmup: float = 0.0, request_timeout: float = REQUEST_TIMEOUT,
                 drain: float = DRAIN) -> None:
        self.vo, self.phases, self.warmup = vo, phases, warmup
        self.server = vo.site_names[1]
        self.clients = [s for s in vo.site_names if s != self.server]
        self.keys = content(vo, self.server)
        self.t0 = vo.sim.now
        self.end = self.t0 + phases[-1][2] + drain if phases else self.t0
        self.stats: Dict[str, StreamStats] = {
            name: StreamStats(window=WINDOW) for name, _, _ in phases}
        self.drivers = {
            name: OpenLoopDriver(vo.network, stats, request_timeout=request_timeout,
                                 warmup=self.t0 + warmup)
            for name, stats in self.stats.items()
        }

    @staticmethod
    def config(seed: int, n_sites: int, admission_limit: Optional[int],
               **changes) -> VOConfig:
        """The VO shape, with the ``VOConfig`` fields a figure changes:
        monitors and lifecycle off (no background churn in the latency
        profile), caches on (the steady-state production path), and GRAM
        overhead shrunk so enactment latency is modelled work, not the
        1 s testbed submission constant."""
        return replace(VOConfig(n_sites=n_sites, seed=seed, cache_enabled=True,
                                monitors=False, lifecycle=False, gram_overhead=0.05,
                                admission_limit=admission_limit), **changes)

    def inject(self, process, kind: Union[str, TrafficMix],
               make_call: Callable[[str, int], Tuple[str, str, str, object]]
               ) -> np.ndarray:
        """Sample ``process`` over the phases under the VO's seed, start a
        cohort injector over it and return its workload-clock times.  An
        arrival's op class is ``kind``, or the mix's draw for it, and
        ``make_call(op, i)`` is arrival ``i``'s call
        (:meth:`OpenLoopDriver.fire`)."""
        t0, phases, drivers = self.t0, self.phases, self.drivers
        seed = self.vo.config.seed
        times = process.sample(phases[-1][2], seed)
        if isinstance(kind, str):
            ops, drawn = (kind,), np.zeros(times.size, np.int8)
        else:
            ops, drawn = kind.ops, kind.assign(times.size, seed)
        labelled = len(phases) > 1

        def fire(t: float, i: int) -> None:
            phase = phases[-1][0]
            for name, start, end in phases:
                if start <= t - t0 < end:
                    phase = name
                    break
            op = f"{phase}|{ops[drawn[i]]}" if labelled else ops[drawn[i]]
            drivers[phase].fire(op, t, i, make_call)

        CohortInjector(self.vo.sim, times + t0, fire, tick=TICK).start()
        return times

    def run(self) -> None:
        """Run through the last phase and the drain."""
        self.vo.sim.run(until=self.end)

    def phase_rows(self, *hot: str) -> Dict[str, Dict[str, float]]:
        """Per phase: arrivals, outcomes and goodput over its post-warmup
        span, then ``hot_<field>`` of its ``hot`` op for each of the
        ``hot`` fields named (``completed``, ``goodput``, ``shed``,
        ``p99_ms``)."""
        rows: Dict[str, Dict[str, float]] = {}
        for name, start, end in self.phases:
            s, span = self.stats[name], end - max(start, self.warmup)
            op = s.ops.get(f"{name}|hot") or OpStats()
            row = rows[name] = {
                "arrivals": s.offered,
                "completed": s.completed,
                "shed": s.shed_total,
                "timeouts": s.timeout_total,
                "goodput": s.completed / span if span > 0 else 0.0,
            }
            fields = {"completed": op.completed,
                      "goodput": op.completed / span if span > 0 else 0.0,
                      "shed": op.shed, "p99_ms": op.latency.p99 * 1000.0}
            row.update((f"hot_{field}", fields[field]) for field in hot)
        return rows

    def fingerprint(self) -> str:
        return "|".join(f"{name}:{stats.fingerprint()}"
                        for name, stats in self.stats.items())
