"""The Deployment Manager: on-demand installation orchestration.

This implements the discovery-triggered pipeline of paper §2.2:

1. analyse the concrete type (constraints, dependencies, deploy-file);
2. choose a target site satisfying the installation constraints;
3. recursively provision missing dependencies *on the target site*
   (Java and Ant before JPOVray, in the paper's running example);
4. transfer the deploy-file, hand it to the deployment handler on the
   target site, and execute the build;
5. identify the resulting deployments (declared names or ``bin/``
   exploration) and register them in the target site's deployment
   registry;
6. notify the site administrator; on failure (or ``mode=manual``) the
   notification replaces the installation, and other candidate sites
   are tried — "if a deployment fails on one site, it can be moved to
   another site" (§3.3).

The manager runs inside the *initiating* site's RDM service but the
installation itself executes on the target through the target RDM's
``deploy`` operation, so all costs land on the right hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, Generator, List, Optional, Tuple

from repro.glare.deployfile import parse_deployfile
from repro.glare.errors import (
    ConstraintViolation,
    DeploymentFailed,
    InvalidTypeDescription,
)
from repro.glare.handlers import ExpectHandler, InstallReport, JavaCoGHandler
from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
)
from repro.glare.registry import deployment_to_wire, wire_site
from repro.gridftp.service import TransferError
from repro.net.interceptors import TRANSIENT_ERRORS, RetryPolicy
from repro.net.network import RpcTimeout
from repro.simkernel.errors import OfflineError
from repro.simkernel.primitives import SingleFlight, bounded_gather
from repro.site.description import SiteDescription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService

#: cost of e-mailing the site administrator (Table 1 "Notification": 345 ms)
NOTIFICATION_COST = 0.345

#: deadline for candidate ``site_info`` probes (unreachable sites are
#: simply skipped; the walk tries the next candidate)
PROBE_RETRY = RetryPolicy.single(8.0)

#: deadline for a remote ``deploy`` (covers a worst-case build; the
#: installation itself retries transient transfers via the handler's
#: download policy)
INSTALL_RETRY = RetryPolicy.single(600.0)


#: concurrent ``site_info`` probes in flight on the scaled path
PROBE_FANOUT = 8

#: seconds a probed SiteDescription stays fresh on the scaled path;
#: static attributes barely change, so even a short TTL removes the
#: O(sites) re-probe from every deployment
SITE_INFO_TTL = 300.0


@dataclass(frozen=True)
class ProvisioningConfig:
    """The provisioning plane's switch: the paper's pipeline, or the scaled one.

    ``scaled`` turns on, together: concurrent candidate probing
    (:data:`PROBE_FANOUT` at a time) with a :data:`SITE_INFO_TTL` cache
    of probed descriptions; concurrent installation of one type's
    independent dependencies; and replica-aware GridFTP (verified
    downloads become catalog replicas, fetches pull from the nearest
    live copy, concurrent same-URL fetches on one site share one
    wide-area transfer).  Both paths of every mechanism stay: paper vs
    scaled is the A/B Fig. 15 measures.  Thread through
    ``build_vo(provisioning=...)``.
    """

    scaled: bool = False
    #: concurrent installation legs of a :meth:`DeploymentManager.rollout`
    #: (1 = fully serial) — a workload parameter fig15 and the
    #: ``rollout_churn`` benchmark set, not part of the switch
    rollout_fanout: int = 1

    #: the paper's serial pipeline — the one default every constructor shares
    PAPER: ClassVar["ProvisioningConfig"]

    def __post_init__(self) -> None:
        if self.rollout_fanout < 1:
            raise ValueError(
                f"rollout_fanout must be >= 1, got {self.rollout_fanout}")

    @classmethod
    def all_on(cls, rollout_fanout: int = 8) -> "ProvisioningConfig":
        """The scaled plane (the fig15 'parallel' series)."""
        return cls(scaled=True, rollout_fanout=rollout_fanout)


ProvisioningConfig.PAPER = ProvisioningConfig()


@dataclass
class ProvisioningStats:
    """Counters a DeploymentManager accumulates."""

    installs_attempted: int = 0
    installs_succeeded: int = 0
    installs_failed: int = 0
    dependencies_installed: int = 0
    notifications_sent: int = 0


class DeploymentManager:
    """Provisioning *mechanism*, hosted by one RDM service.

    Two policies drive it and it decides for neither:

    * the on-demand pipeline (:meth:`deploy_on_demand`) — install when
      a discovery request misses;
    * the desired-state reconciler (:mod:`repro.orchestrate`) — its
      actuator calls :meth:`probe_sites` and :meth:`rollout` and owns
      every scale-out/scale-in decision itself.

    The manager therefore keeps no replica-count opinions: it probes,
    installs, registers and notifies, and reports what happened.
    """

    def __init__(
        self,
        rdm: "GlareRDMService",
        handler: str = "expect",
        config: ProvisioningConfig = ProvisioningConfig.PAPER,
    ) -> None:
        if handler not in ("expect", "javacog"):
            raise ValueError(f"unknown deployment handler {handler!r}")
        self.rdm = rdm
        self.handler_kind = handler
        self.config = config
        self.stats = ProvisioningStats()
        #: in-flight installations keyed by (type, placement): concurrent
        #: requests with the same placement intent piggyback on the first
        #: one instead of racing to install duplicates (single-flight);
        #: the placement part of the key keeps concurrent rollout legs —
        #: same type, *different* target sites — from wrongly sharing
        #: one installation
        self._flights = SingleFlight(self.sim)
        self.piggybacked = 0
        #: probed SiteDescriptions by name: (probed_at, description)
        self._site_cache: Dict[str, Tuple[float, SiteDescription]] = {}
        self.probe_cache_hits = 0

    @property
    def sim(self):
        return self.rdm.sim

    # -- initiator side -----------------------------------------------------

    def deploy_on_demand(
        self,
        activity_type: ActivityType,
        preferred_site: Optional[str] = None,
        exclude_sites: tuple = (),
        _depth: int = 0,
    ) -> Generator:
        """Install ``activity_type`` somewhere suitable; yields wires.

        Returns the list of freshly registered deployment wire dicts.
        Tries candidate sites in order until one succeeds.
        """
        if _depth > 8:
            raise DeploymentFailed(
                f"dependency recursion too deep while deploying {activity_type.name!r}"
            )
        # single-flight: if the same type is already being installed by
        # this site's deployment manager with the same placement intent,
        # wait for that result instead of installing a duplicate
        def lead() -> Generator:
            with self.rdm.obs.tracer.span(
                "deploy:on_demand", type=activity_type.name, depth=_depth
            ):
                wires = yield from self._deploy_on_demand_inner(
                    activity_type, preferred_site, exclude_sites, _depth
                )
            return wires

        key = (activity_type.name, preferred_site, tuple(sorted(exclude_sites)))
        led, ok, wires = yield from self._flights.run(key, lead)
        if not led:
            self.piggybacked += 1
            if not ok:
                raise DeploymentFailed(
                    f"concurrent installation of {activity_type.name!r} failed"
                )
        return wires

    def _deploy_on_demand_inner(
        self,
        activity_type: ActivityType,
        preferred_site: Optional[str],
        exclude_sites: tuple,
        _depth: int,
    ) -> Generator:
        if not activity_type.is_concrete or activity_type.installation is None:
            raise DeploymentFailed(
                f"type {activity_type.name!r} has no installation procedure"
            )
        spec = activity_type.installation
        if spec.mode == "manual":
            yield from self.notify_admin(
                self.rdm.node_name, activity_type,
                reason="manual installation requested",
            )
            raise DeploymentFailed(
                f"type {activity_type.name!r} is manual-install only; "
                "administrator notified"
            )

        candidates = yield from self._candidate_sites(spec.constraints, preferred_site)
        candidates = [c for c in candidates if c not in set(exclude_sites)]
        if not candidates:
            raise ConstraintViolation(
                f"no site satisfies constraints {spec.constraints} for "
                f"{activity_type.name!r}"
            )

        last_error: Optional[Exception] = None
        for target in candidates:
            self.stats.installs_attempted += 1
            try:
                wires = yield from self._deploy_on(activity_type, target, _depth)
                self.stats.installs_succeeded += 1
                return wires
            except (DeploymentFailed, TransferError, OfflineError, RpcTimeout) as error:
                self.stats.installs_failed += 1
                last_error = error
                # failure on one site: notify its admin, move to another
                yield from self.notify_admin(target, activity_type, reason=str(error))
                continue
        raise DeploymentFailed(
            f"deployment of {activity_type.name!r} failed on all "
            f"{len(candidates)} candidate site(s): {last_error}"
        )

    def _candidate_sites(
        self, constraints: Dict[str, str], preferred_site: Optional[str]
    ) -> Generator:
        """Sites satisfying the installation constraints, best first."""
        obs = self.rdm.obs
        started = self.sim.now
        with obs.tracer.span("deploy:candidates") as span:
            names = yield from self.rdm.known_sites()
            if preferred_site:
                names = [preferred_site] + [n for n in names if n != preferred_site]
            descriptions = yield from self.probe_sites(names)
            candidates: List[str] = []
            for name in names:
                desc = descriptions.get(name)
                if desc is not None and desc.satisfies(constraints):
                    candidates.append(name)
            span.set_attr("considered", len(names))
            span.set_attr("candidates", len(candidates))
        obs.metrics.histogram("provision.candidate_selection").observe(
            self.sim.now - started
        )
        return candidates

    def probe_sites(self, names: List[str]) -> Generator:
        """``site_info`` every site in ``names``; unreachable ones dropped.

        Returns ``{name: SiteDescription}``.  On the scaled path a
        fresh cache entry skips the RPC and the remaining probes run
        concurrently, at most :data:`PROBE_FANOUT` at a time, instead
        of serially.

        Public mechanism: besides candidate selection here, the
        desired-state reconciler's actuator probes through this method,
        so both policies share one probe path (and one cache).
        """
        descriptions: Dict[str, SiteDescription] = {}
        missing: List[str] = []
        for name in names:
            cached = self._cached_description(name)
            if cached is not None:
                descriptions[name] = cached
                self.probe_cache_hits += 1
            else:
                missing.append(name)
        if self.config.scaled and len(missing) > 1:
            outcomes = yield from bounded_gather(
                self.sim,
                [(lambda n=name: self._probe_one(n)) for name in missing],
                limit=PROBE_FANOUT,
                name="probe",
            )
            for name, (ok, value) in zip(missing, outcomes):
                if ok and value is not None:
                    descriptions[name] = value
        else:
            for name in missing:
                desc = yield from self._probe_one(name)
                if desc is not None:
                    descriptions[name] = desc
        return descriptions

    def _probe_one(self, name: str) -> Generator:
        """One ``site_info`` RPC; ``None`` when the site is unreachable."""
        try:
            info = yield from self.rdm.rpc(name, "site_info", None, retry=PROBE_RETRY)
        except TRANSIENT_ERRORS:
            return None  # offline, silent or shedding: not a candidate now
        desc = SiteDescription.from_info(info)
        if self.config.scaled:
            self._site_cache[name] = (self.sim.now, desc)
        return desc

    def _cached_description(self, name: str) -> Optional[SiteDescription]:
        entry = self._site_cache.get(name)
        if entry is not None and self.sim.now - entry[0] <= SITE_INFO_TTL:
            return entry[1]
        return None

    def _deploy_on(
        self, activity_type: ActivityType, target: str, depth: int
    ) -> Generator:
        """Provision dependencies, then install on ``target``."""
        spec = activity_type.installation
        assert spec is not None
        tracer = self.rdm.obs.tracer
        # Dependencies first — each must have a deployment on the target.
        # Installations of *different* dependency types are independent
        # (shared transitive dependencies still serialise through the
        # single-flight gate), so on the scaled path they all run at
        # once under one barrier.
        deps = list(spec.dependencies)
        if self.config.scaled and len(deps) > 1:
            outcomes = yield from bounded_gather(
                self.sim,
                [
                    (lambda d=dep: self._provision_dependency(
                        activity_type, d, target, depth
                    ))
                    for dep in deps
                ],
                name=f"deps:{activity_type.name}",
            )
            for ok, value in outcomes:
                if not ok:
                    raise value  # first failure in declaration order
        else:
            for dep_name in deps:
                yield from self._provision_dependency(
                    activity_type, dep_name, target, depth
                )

        with tracer.span("deploy:install", target=target, type=activity_type.name):
            result = yield from self.rdm.rpc(
                target, "deploy",
                {"type_xml": activity_type.wire_xml(),
                 "requester": self.rdm.node_name,
                 "handler": self.handler_kind},
                retry=INSTALL_RETRY,
            )
        if not result["success"]:
            raise DeploymentFailed(result.get("error", "installation failed"))
        # cache what the target registered
        for wire in result["deployments"]:
            self.rdm.adr.cache_wire(wire)
        return result["deployments"]

    def _provision_dependency(
        self, activity_type: ActivityType, dep_name: str, target: str, depth: int
    ) -> Generator:
        """Ensure one dependency has a deployment on ``target``."""
        tracer = self.rdm.obs.tracer
        with tracer.span("deploy:dependency", dependency=dep_name, target=target):
            dep_wires = yield from self.rdm.rpc(
                target, "local_lookup", {"type": dep_name}
            )
            deployed_here = [
                w for w in dep_wires["deployments"] if wire_site(w) == target
            ]
            if deployed_here:
                return
            dep_type = yield from self.rdm.request_manager.discover_type(dep_name)
            if dep_type is None:
                raise DeploymentFailed(
                    f"dependency {dep_name!r} of {activity_type.name!r} is unknown"
                )
            yield from self.deploy_on_demand(
                dep_type, preferred_site=target, _depth=depth + 1
            )
            self.stats.dependencies_installed += 1

    # -- rollout ------------------------------------------------------------

    def rollout(
        self,
        activity_type: ActivityType,
        target_sites: Optional[List[str]] = None,
        fanout: Optional[int] = None,
    ) -> Generator:
        """Deploy ``activity_type`` on *every* matching site.

        The bulk-provisioning shape the on-demand path cannot express:
        one type pushed to N sites with bounded parallelism
        (``fanout``, defaulting to :attr:`ProvisioningConfig.
        rollout_fanout`; 1 = fully serial).  ``target_sites`` overrides
        candidate selection.  Per-site failures are reported, not
        raised — a rollout is best-effort across the fleet.

        Returns ``{"type":, "results": [{"site":, "status": "installed"
        | "present" | "failed", "deployments": [...], "error":}, ...]}``
        in target order.
        """
        if not activity_type.is_concrete or activity_type.installation is None:
            raise DeploymentFailed(
                f"type {activity_type.name!r} has no installation procedure"
            )
        spec = activity_type.installation
        if spec.mode == "manual":
            raise DeploymentFailed(
                f"type {activity_type.name!r} is manual-install only"
            )
        width = fanout if fanout is not None else self.config.rollout_fanout
        if target_sites is None:
            targets = yield from self._candidate_sites(spec.constraints, None)
        else:
            targets = list(target_sites)
        with self.rdm.obs.tracer.span(
            "deploy:rollout", type=activity_type.name, targets=len(targets),
            fanout=width,
        ):
            outcomes = yield from bounded_gather(
                self.sim,
                [
                    (lambda t=target: self._rollout_leg(activity_type, t))
                    for target in targets
                ],
                limit=width,
                name=f"rollout:{activity_type.name}",
            )
        results: List[Dict[str, object]] = []
        for target, (ok, value) in zip(targets, outcomes):
            if ok:
                results.append(value)
            else:
                self.stats.installs_failed += 1
                results.append(
                    {"site": target, "status": "failed", "error": str(value),
                     "deployments": []}
                )
        return {"type": activity_type.name, "results": results}

    def _rollout_leg(self, activity_type: ActivityType, target: str) -> Generator:
        """One rollout target: skip if present, else install there."""
        wires = yield from self.rdm.rpc(
            target, "local_lookup", {"type": activity_type.name}
        )
        deployed_here = [
            w for w in wires["deployments"] if wire_site(w) == target
        ]
        if deployed_here:
            return {"site": target, "status": "present", "error": "",
                    "deployments": deployed_here}
        self.stats.installs_attempted += 1
        new_wires = yield from self._deploy_on(activity_type, target, 0)
        self.stats.installs_succeeded += 1
        return {"site": target, "status": "installed", "error": "",
                "deployments": new_wires}

    # -- target side (runs under op_deploy on the target's RDM) ----------------------

    def install_locally(
        self, activity_type: ActivityType, requester: str, handler_kind: str
    ) -> Generator:
        """Execute the type's deploy-file on *this* site.

        Returns ``{"success":, "error":, "deployments": [...],
        "report": {...timings...}}``.
        """
        spec = activity_type.installation
        if spec is None or not spec.deploy_file_url:
            return {
                "success": False,
                "error": f"type {activity_type.name!r} has no deploy-file",
                "deployments": [],
                "report": None,
            }
        site = self.rdm.site
        if not site.description.satisfies(spec.constraints):
            return {
                "success": False,
                "error": f"site {site.name} violates constraints {spec.constraints}",
                "deployments": [],
                "report": None,
            }

        obs = self.rdm.obs

        # 1. fetch the deploy-file itself
        scratch = site.env["GLOBUS_SCRATCH_DIR"]
        deployfile_path = f"{scratch}/{activity_type.name}.build"
        fetch_started = self.sim.now
        try:
            with obs.tracer.span(
                "install:fetch_deployfile", url=spec.deploy_file_url, site=site.name
            ):
                yield from self.rdm.gridftp.fetch_url(
                    spec.deploy_file_url, deployfile_path,
                    expected_md5=spec.deploy_file_md5,
                )
            recipe_xml = self.rdm.deployfile_source(spec.deploy_file_url)
            recipe = parse_deployfile(recipe_xml)
        except (TransferError, InvalidTypeDescription, OfflineError, RpcTimeout) as error:
            return {
                "success": False,
                "error": f"deploy-file unavailable: {error}",
                "deployments": [],
                "report": None,
            }
        obs.metrics.histogram("provision.transfer").observe(
            self.sim.now - fetch_started
        )

        # 2. make sure the type itself is registered locally first (the
        # dynamic type registration of paper §3.1) so deployment
        # registration below is not charged for it
        if self.rdm.atr.find_type(activity_type.name) is None:
            yield from self.rdm.network.call(
                site.name, site.name, self.rdm.atr.name, "register_type",
                payload={"xml": activity_type.wire_xml()},
            )

        # 3. run the handler
        if handler_kind == "javacog":
            handler = JavaCoGHandler(
                site, self.rdm.gridftp, self.rdm.network, caller=requester
            )
        else:
            handler = ExpectHandler(site, self.rdm.gridftp)
        handler_started = self.sim.now
        with obs.tracer.span(
            "install:handler", handler=handler_kind, site=site.name,
            recipe=recipe.name,
        ) as handler_span:
            report = yield from handler.execute(recipe)
            handler_span.set_attr("success", report.success)
        obs.metrics.histogram("provision.handler", handler=handler_kind).observe(
            self.sim.now - handler_started
        )
        if not report.success:
            return {
                "success": False,
                "error": report.error,
                "deployments": [],
                "report": _report_wire(report),
            }

        # 4. identify + register deployments
        deployments = self._identify_deployments(activity_type, report)
        wires = []
        registration_start = self.sim.now
        with obs.tracer.span(
            "install:register", site=site.name, count=len(deployments)
        ):
            for deployment in deployments:
                yield from self.rdm.rpc_local_adr_register(
                    deployment, type_xml=activity_type.wire_xml()
                )
                epr = self.rdm.adr.home.lookup(deployment.key).epr
                wires.append(deployment_to_wire(deployment, epr))
        registration_time = self.sim.now - registration_start
        obs.metrics.histogram("provision.registration").observe(registration_time)

        # 5. notify the site administrator of the new installation
        yield from self.notify_admin(site.name, activity_type, reason="installed")

        wire_report = _report_wire(report)
        wire_report["registration_time"] = registration_time
        return {
            "success": True,
            "error": "",
            "deployments": wires,
            "report": wire_report,
        }

    def _identify_deployments(
        self, activity_type: ActivityType, report: InstallReport
    ) -> List[ActivityDeployment]:
        """Declared deployment names, else ``bin/`` exploration."""
        site = self.rdm.site
        home = f"{site.env['DEPLOYMENT_DIR']}/{activity_type.name.lower()}"
        executables = site.fs.find_executables(site.env["DEPLOYMENT_DIR"])
        recent = [e for e in executables if e.created_at >= report.steps[0].started_at]
        declared = set(activity_type.deployment_names)

        chosen = []
        if declared:
            for entry in recent:
                if entry.name in declared:
                    chosen.append(entry)
            service_names = declared - {e.name for e in chosen}
        else:
            chosen = recent
            service_names = set()

        deployments = []
        for entry in chosen:
            deployments.append(
                ActivityDeployment(
                    name=entry.name,
                    type_name=activity_type.name,
                    kind=DeploymentKind.EXECUTABLE,
                    site=site.name,
                    path=entry.path,
                    home=entry.path.rsplit("/bin/", 1)[0] if "/bin/" in entry.path else home,
                    status=DeploymentStatus.ACTIVE,
                )
            )
        # declared names starting with "WS-" (or unmatched by files) are
        # web-service deployments hosted in the site's WSRF container
        for name in sorted(service_names):
            deployments.append(
                ActivityDeployment(
                    name=name,
                    type_name=activity_type.name,
                    kind=DeploymentKind.SERVICE,
                    site=site.name,
                    endpoint=f"https://{site.name}/wsrf/services/{name}",
                    home=home,
                    status=DeploymentStatus.ACTIVE,
                )
            )
        return deployments

    # -- shared -----------------------------------------------------------------

    def notify_admin(self, site: str, activity_type: ActivityType, reason: str) -> Generator:
        """E-mail the target site's administrator (simulated SMTP cost)."""
        obs = self.rdm.obs
        with obs.tracer.span("install:notify", site=site, reason=reason):
            yield self.sim.timeout(NOTIFICATION_COST)
        obs.metrics.histogram("provision.notification").observe(NOTIFICATION_COST)
        self.stats.notifications_sent += 1
        self.rdm.admin_notifications.append(
            {"site": site, "type": activity_type.name, "reason": reason,
             "at": self.sim.now}
        )


def _report_wire(report: InstallReport) -> Dict[str, object]:
    return {
        "recipe": report.recipe,
        "site": report.site,
        "handler": report.handler,
        "success": report.success,
        "communication_time": report.communication_time,
        "installation_time": report.installation_time,
        "handler_overhead": report.handler_overhead,
        "steps": len(report.steps),
    }
