"""Virtual Organization assembly: a whole simulated Grid in one call.

The paper deploys GLARE over the Austrian Grid — "more than ten Grid
sites that aggregate over 200 processors", spread across cities, each
with its own job manager and Globus installation.  :func:`build_vo`
assembles the analogue: N sites with heterogeneous static attributes,
a star-over-WAN topology, and a full service stack per site (Default
Index, GridFTP, GRAM, ATR, ADR, GridARM, RDM), plus one VO-root site
hosting the Community Index and an ``origin`` host that publishes
application archives (standing in for the public internet).

All examples, tests and benchmark drivers build on this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Generator, List, Optional, Tuple, Union

from repro.faults import FaultPlane, FaultsConfig
from repro.glare.lifecycle import LifecycleController
from repro.glare.provisioning import ProvisioningConfig
from repro.glare.rdm import GlareRDMService, RDM_SERVICE
from repro.glare.resolution import ResolutionConfig
from repro.glare.registry import ActivityDeploymentRegistry, ActivityTypeRegistry
from repro.glare.storage import StorageConfig
from repro.gram.service import GramService
from repro.gridarm.reservation import ReservationService
from repro.gridftp.service import GridFtpService, UrlCatalog
from repro.invariants import enlist
from repro.mds.index import IndexService, SiteRegistration
from repro.net.interceptors import RetryPolicy
from repro.net.network import Network
from repro.net.service import Plane
from repro.net.topology import Topology
from repro.net.transport import SecurityPolicy
from repro.obs import MetricsRecorder, Observability
from repro.orchestrate.agent import SiteAgent
from repro.orchestrate.spec import OrchestrationConfig
from repro.simkernel import Simulator
from repro.site.description import SiteDescription
from repro.site.gridsite import GridSite

#: name of the pseudo-site hosting public download URLs
ORIGIN = "origin"

# The testbed's fixed shape: every caller runs these values, so they
# are constants, not :class:`VOConfig` fields.
SITE_PREFIX = "agrid"
CORES_PER_SITE = 4
WAN_BANDWIDTH = 12.5e6  # 100 Mbit/s
GRIDFTP_SETUP = 0.3


@dataclass
class VOConfig:
    """Knobs for :func:`build_vo` (defaults mirror the paper's testbed)."""

    n_sites: int = 7
    seed: int = 42
    security: bool = False
    cache_enabled: bool = True
    handler: str = "expect"
    group_size: int = 3
    wan_latency: float = 0.004  # intra-Austria RTT ~8 ms
    gram_overhead: float = 1.0
    monitors: bool = True
    lifecycle: bool = True
    extra_site_attrs: Dict[str, Dict[str, str]] = field(default_factory=dict)
    # One switch per plane, each defaulting to the paper's path (the
    # byte-identical baseline); paper vs scaled is what figs 14/15/17
    # measure, and they are combined freely.
    #: resolution plane: ``ResolutionConfig.all_on()`` for the scaled walk
    resolution: ResolutionConfig = ResolutionConfig.PAPER
    #: provisioning plane: ``ProvisioningConfig.all_on(rollout_fanout)``
    provisioning: ProvisioningConfig = ProvisioningConfig.PAPER
    #: storage plane: ``StorageConfig.sharded(shards, routing)``
    storage: StorageConfig = StorageConfig.PAPER
    #: model fair-share bandwidth contention on shared links; off by
    #: default (the baseline charges every transfer the full bottleneck
    #: bandwidth regardless of concurrency)
    contention: bool = False
    #: tracing + metrics: ``False`` (default, zero-overhead null tracer),
    #: ``True`` (fresh enabled bundle), or a pre-built
    #: :class:`~repro.obs.Observability` instance — the one way to set a
    #: sampling period or declare SLOs
    observability: Union[bool, Observability] = False
    #: fault scenario for the VO-wide fault plane (``None`` = disabled,
    #: preserving the byte-identical baseline behaviour)
    faults: Optional[FaultsConfig] = None
    #: default retry policy for every RDM's outbound RPC (``None`` =
    #: legacy single attempts; experiments opt in per series)
    rpc_retry: Optional[RetryPolicy] = None
    #: admission bound on each RDM frontend (``None`` = unbounded;
    #: excess concurrent requests are shed with ``Overloaded``)
    admission_limit: Optional[int] = None
    #: desired-state orchestration (``None`` or a spec-less config =
    #: no reconciler process at all — byte-identical baseline behaviour)
    orchestration: Optional["OrchestrationConfig"] = None
    #: WSRF expiry-sweep cadence of each site's LifecycleController
    #: (orchestration experiments shorten it so drained replicas are
    #: garbage-collected within a reconcile interval or two)
    lifecycle_sweep_interval: float = 10.0


@dataclass
class SiteStack:
    """All services deployed on one VO member site, in start order."""

    site: GridSite
    index: IndexService
    gridftp: GridFtpService
    gram: GramService
    atr: ActivityTypeRegistry
    adr: ActivityDeploymentRegistry
    gridarm: ReservationService
    rdm: GlareRDMService
    agent: SiteAgent
    lifecycle: LifecycleController

    @property
    def name(self) -> str:
        return self.site.name

    @property
    def planes(self) -> Tuple[Plane, ...]:
        """The site's parts in start order: what every walk over a site
        (shutdown, audit) iterates instead of naming them."""
        return tuple(getattr(self, part.name) for part in fields(self))


class VirtualOrganization:
    """A running VO: simulator + topology + per-site service stacks."""

    def __init__(self, config: VOConfig) -> None:
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.topology = Topology()
        security = SecurityPolicy.https() if config.security else SecurityPolicy.http()
        if isinstance(config.observability, Observability):
            self.obs = config.observability
        else:
            self.obs = Observability(enabled=bool(config.observability))
        self.faults = FaultPlane(self.sim, config.faults)
        self.network = Network(
            self.sim, self.topology, security=security, obs=self.obs,
            contention=config.contention, faults=self.faults,
        )
        self.url_catalog = UrlCatalog()
        self.stacks: Dict[str, SiteStack] = {}
        self.community_site: str = ""
        self.origin: Optional[GridSite] = None
        #: desired-state reconciler (orchestration config only)
        self.reconciler = None
        #: set by :meth:`stop`: the audit's shutdown clauses now apply
        self.stopped = False

    # -- accessors -----------------------------------------------------------

    @property
    def site_names(self) -> List[str]:
        return list(self.stacks)

    def stack(self, name: str) -> SiteStack:
        return self.stacks[name]

    def rdm(self, name: str) -> GlareRDMService:
        return self.stacks[name].rdm

    # -- client helpers ----------------------------------------------------------

    def client_call(self, site: str, method: str, payload: Any = None,
                    service: str = RDM_SERVICE) -> Generator:
        """Sub-generator: a client at ``site`` calls its local service."""
        return self.network.call(site, site, service, method, payload=payload)

    def run_process(self, generator: Generator, until: Optional[float] = None):
        """Run one client process to completion and return its value."""
        proc = self.sim.process(generator)
        if until is not None:
            self.sim.run(until=until)
            if not proc.triggered:
                raise TimeoutError("client process did not finish in time")
        else:
            self.sim.run(until=proc)
        if not proc.ok:  # pragma: no cover - surfaced by run(until=proc)
            raise proc.value
        return proc.value

    # -- shutdown ----------------------------------------------------------------

    def background(self) -> List[Any]:
        """Every owner of a loop ``build_vo`` or a caller can start, each
        with ``stop()`` and ``running``: VO-wide, then each site's planes
        in reverse start order.  The fault plane's finite crash/churn
        schedule is not a loop and is left alone."""
        owners: List[Any] = [self.reconciler, self.obs.slo, self.obs.recorder]
        for stack in self.stacks.values():
            owners += [loop for plane in reversed(stack.planes)
                       for loop in plane.loops()]
        return [owner for owner in owners if owner is not None]

    def stop(self) -> None:
        """Stop every background loop: once ``sim.run()`` has drained
        the work in flight, nothing is left on the agenda."""
        self.stopped = True
        for owner in self.background():
            owner.stop()

    # -- overlay -----------------------------------------------------------------

    def form_overlay(self, settle: float = 10.0) -> Dict[str, List[str]]:
        """Run a super-peer election synchronously; returns the groups.

        ``settle`` gives the super-peers' detached member-assignment
        fan-out time to land before the group map is read back.
        """
        coordinator = self.rdm(self.community_site)
        membership = list(self.stacks)
        self.run_process(coordinator.overlay.run_election(membership))
        self.sim.run(until=self.sim.now + settle)
        groups: Dict[str, List[str]] = {}
        for name, stack in self.stacks.items():
            view = stack.rdm.overlay.view
            if view.super_peer:  # unassigned (e.g. offline) sites are skipped
                groups.setdefault(view.super_peer, []).append(name)
        return groups

    def super_peers(self) -> List[str]:
        return sorted(name for name, stack in self.stacks.items()
                      if stack.rdm.overlay.is_super_peer)

    # -- content publication --------------------------------------------------------

    def publish_archive(self, url: str, size: int, md5sum: str = "") -> None:
        """Host an application archive on the origin pseudo-site."""
        assert self.origin is not None
        path = "/www/" + url.split("/")[-1]
        self.origin.fs.put_file(path, size=size, md5sum=md5sum)
        self.url_catalog.publish(url, ORIGIN, path)

    def publish_deployfile(self, url: str, content: str, md5sum: str = "") -> None:
        """Host a deploy-file (content retrievable by RDM services)."""
        assert self.origin is not None
        path = "/www/" + url.split("/")[-1]
        self.origin.fs.put_file(path, size=len(content), md5sum=md5sum)
        self.url_catalog.publish(url, ORIGIN, path, content=content)


def _site_description(config: VOConfig, index: int) -> SiteDescription:
    """Deterministic heterogeneous site attributes (Austrian-Grid-ish)."""
    name = f"{SITE_PREFIX}{index:02d}"
    return SiteDescription(
        name=name,
        platform="Intel",
        os="Linux",
        arch="32bit",
        processor_speed_mhz=2200.0 + 200.0 * (index % 5),
        memory_mb=1024.0 * (1 + index % 4),
        processors=CORES_PER_SITE,
        uptime_hours=500.0 + 137.0 * index,
        extra=dict(config.extra_site_attrs.get(name, {})),
    )


def build_vo(config: Optional[VOConfig] = None, **overrides) -> VirtualOrganization:
    """Assemble a complete VO; see :class:`VOConfig` for the knobs."""
    if config is None:
        config = VOConfig(**overrides)
    elif overrides:
        raise ValueError("pass either a VOConfig or keyword overrides, not both")
    if config.n_sites < 1:
        raise ValueError("a VO needs at least one site")

    vo = VirtualOrganization(config)
    names = [f"{SITE_PREFIX}{i:02d}" for i in range(config.n_sites)]
    vo.community_site = names[0]

    # Topology: star around the community site (national research
    # network hub) + a well-connected origin host for downloads.
    vo.topology.add_site(names[0])
    for name in names[1:]:
        vo.topology.add_link(names[0], name, config.wan_latency, WAN_BANDWIDTH)
    vo.topology.add_link(names[0], ORIGIN, config.wan_latency * 2, WAN_BANDWIDTH)

    # Origin pseudo-site: hosts archives, runs only GridFTP.
    origin_desc = SiteDescription(name=ORIGIN, processors=8, memory_mb=8192.0)
    vo.origin = GridSite(vo.network, origin_desc)
    GridFtpService(
        vo.network, ORIGIN, fs=vo.origin.fs,
        setup_cost=GRIDFTP_SETUP, url_catalog=vo.url_catalog,
    )

    # Member sites.
    for index, name in enumerate(names):
        site = GridSite(vo.network, _site_description(config, index))
        mds = IndexService(
            vo.network, name,
            community=(name == vo.community_site),
            upstream=None if name == vo.community_site else vo.community_site,
        )
        gridftp = GridFtpService(
            vo.network, name, fs=site.fs,
            setup_cost=GRIDFTP_SETUP, url_catalog=vo.url_catalog,
            replica_aware=config.provisioning.scaled,
        )
        gram = GramService(vo.network, name, submission_overhead=config.gram_overhead)
        atr = ActivityTypeRegistry(
            vo.network, name, cache_enabled=config.cache_enabled,
            storage=config.storage,
        )
        adr = ActivityDeploymentRegistry(
            vo.network, name, atr=atr, cache_enabled=config.cache_enabled,
            storage=config.storage,
        )
        gridarm = ReservationService(vo.network, name)
        rdm = GlareRDMService(
            vo.network, site, atr, adr, gridftp,
            handler=config.handler,
            community_site=vo.community_site,
            group_size=config.group_size,
            resolution=config.resolution,
            provisioning=config.provisioning,
            retry_policy=config.rpc_retry,
            storage=config.storage,
        )
        # the site's end of desired-state orchestration, reconciler or not
        agent = SiteAgent(rdm)
        rdm.attach(agent)
        if config.admission_limit is not None:
            rdm.admission_limit = config.admission_limit
        # built on every site; ``config.lifecycle`` decides whether it runs
        lifecycle = LifecycleController(
            rdm, sweep_interval=config.lifecycle_sweep_interval)
        vo.stacks[name] = SiteStack(site, mds, gridftp, gram, atr, adr,
                                    gridarm, rdm, agent, lifecycle)

    # Bootstrap community membership (initial registrations at t=0),
    # then start the keepalive + monitor machinery.
    community_index = vo.stacks[vo.community_site].index
    for name in names:
        community_index.site_registrations[name] = SiteRegistration(
            site=name, registered_at=0.0, last_keepalive=0.0,
            ttl=community_index.registration_ttl,
        )
    for stack in vo.stacks.values():
        stack.index.start()
        if config.monitors:
            stack.rdm.start(monitors=True)
        if config.lifecycle:
            stack.lifecycle.start()

    # Observability: the gauge recorder only runs when enabled.
    if vo.obs.enabled:
        vo.obs.recorder = MetricsRecorder(vo, interval=vo.obs.sample_interval)
        vo.obs.recorder.start()
    if vo.obs.slo is not None:
        vo.obs.slo.start()

    # Desired-state orchestration: one reconciler process on the
    # community site, driving the VO toward the declared specs.  The
    # health plane (when enabled) feeds degraded/down states into
    # placement.  Off by default — no config, no process, no events.
    if config.orchestration is not None and config.orchestration.any_enabled:
        from repro.orchestrate import RdmActuator, Reconciler

        community_rdm = vo.stacks[vo.community_site].rdm
        vo.reconciler = Reconciler(
            community_rdm,
            config.orchestration,
            actuator=RdmActuator(community_rdm),
            health=vo.obs.health,
        )
        vo.reconciler.start()

    # Fault plane: spawn the crash/churn schedules (no-op when disabled).
    vo.faults.start(vo.site_names)

    enlist(vo)
    return vo
