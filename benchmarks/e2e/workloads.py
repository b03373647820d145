"""The six workloads: set-up, timed section, outcome ledger, checks.

A workload object lives for one *pass*: ``set_up()`` builds the VO,
registers content and runs a simulated warm-up window (timed by the
caller as ``setup_s``); ``run_timed()`` drives a fixed, seed-determined
number of client-visible operations and records each into
preallocated numpy arrays (:class:`OpLedger`).  Nothing here reads a
host clock, so for a fixed seed every array — and every ``sim_*``
statistic derived from it — repeats exactly.

Offered rates, client counts and op counts are absolute constants, not
multiples of a measured capacity: the load must not move when the
modelled design does.  ``scale`` shrinks horizons and op counts only
(the self-test runs at 0.02).
"""

from __future__ import annotations

import hashlib
import math
import zlib
from typing import Dict, Generator, List, Sequence, Tuple

import numpy as np

from adapter import (
    ATR_SERVICE,
    MDS_SERVICE,
    RDM_SERVICE,
    ActivityDeployment,
    ActivityType,
    CohortInjector,
    DeploymentKind,
    DeploymentStatus,
    Observability,
    Overloaded,
    PoissonProcess,
    ProvisioningConfig,
    ResolutionConfig,
    RetryPolicy,
    RpcTimeout,
    SLOSpec,
    StorageConfig,
    base_hierarchy_types,
    build_vo,
    get_application,
    publish_applications,
)

#: outcome codes of one client-visible operation (0 = never resolved,
#: which the conservation check reports as a benchmark failure)
UNRESOLVED, OK, SHED, TIMEOUT, FAILED = range(5)
OUTCOMES = ("unresolved", "ok", "shed", "timeout", "failed")

#: finished-span retention when observability is on: bounded, and large
#: enough that no pass of any workload overflows it (the ring buffer's
#: overflow path is O(buffer) per span)
MAX_SPANS = 400_000

#: the two objectives every observed pass carries, so each RPC crosses
#: the SLO interceptor and the call-level engine
SLOS = (
    SLOSpec(name="rpc-availability", endpoint="*", target=0.99),
    SLOSpec(name="resolve-latency", endpoint=f"{RDM_SERVICE}.get_deployments",
            objective="latency", target=0.95, threshold_s=0.5, level="call"),
)

TYPE_XML = (
    '<ActivityTypeEntry name="{name}" kind="concrete">'
    "<Domain>{domain}</Domain>"
    '<Function name="run"><Input>data</Input><Output>result</Output></Function>'
    '<Benchmark platform="Intel">1.0</Benchmark>'
    "<Provider>e2e</Provider>"
    "</ActivityTypeEntry>"
)


def seeded(seed: int, name: str) -> np.random.Generator:
    """The benchmark's own named input stream for ``(seed, name)``."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def scaled(count: float, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def exact_mix(rng: np.random.Generator, n: int, shares: Sequence[float]) -> np.ndarray:
    """``n`` labels in seeded random order with exactly the given shares.

    Exact shares rather than independent draws: every seed then offers
    the same amount of each kind of work, so seeds differ in order and
    timing but not in how much there is to do.
    """
    counts = [int(share * n) for share in shares]
    counts[0] += n - sum(counts)
    return rng.permutation(np.repeat(np.arange(len(shares)), counts)).astype(np.int8)


class OpLedger:
    """Per-op outcome record: label, due time, completion time, outcome."""

    def __init__(self, n: int, labels: Sequence[str]) -> None:
        self.labels = tuple(labels)
        self.label = np.zeros(n, dtype=np.int8)
        self.due = np.zeros(n, dtype=np.float64)
        self.done = np.zeros(n, dtype=np.float64)
        self.outcome = np.zeros(n, dtype=np.int8)

    def __len__(self) -> int:
        return int(self.outcome.size)

    def counts(self) -> Dict[str, int]:
        tally = np.bincount(self.outcome, minlength=len(OUTCOMES))
        return {name: int(tally[code]) for code, name in enumerate(OUTCOMES)}

    def latencies_ms(self) -> np.ndarray:
        """Sorted simulated latency of the ``ok`` ops, from due time."""
        ok = self.outcome == OK
        return np.sort((self.done[ok] - self.due[ok]) * 1000.0)

    def digest(self) -> str:
        """sha256 over ``op|index|due|outcome|done``, one line per op."""
        sha = hashlib.sha256()
        labels = self.labels
        for i in range(len(self)):
            sha.update(
                f"{labels[self.label[i]]}|{i}|{self.due[i]:.6f}|"
                f"{OUTCOMES[self.outcome[i]]}|{self.done[i]:.6f}\n".encode()
            )
        return sha.hexdigest()


def nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: an observed value, never interpolated."""
    if sorted_values.size == 0:
        return float("nan")
    return float(sorted_values[max(0, math.ceil(q * sorted_values.size) - 1)])


class Workload:
    """One pass of one workload (see module docstring)."""

    name = ""
    loop = ""
    why = ""
    #: outcomes this workload's contract allows; anything else is an
    #: unexpected failure of the program under test
    allowed: Tuple[int, ...] = (OK,)
    #: whether the workload itself runs with observability on
    observed = False
    #: simulated seconds between run-queue samples of a traced pass
    SAMPLE_EVERY = 0.02

    def __init__(self, seed: int, scale: float = 1.0,
                 observe: bool | None = None) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        self.observe = self.observed if observe is None else bool(observe)
        self.vo = None
        self.ops: OpLedger | None = None
        #: simulated seconds the measured ops were offered/issued over
        self.sim_span = 0.0
        #: simulated clock at the start of the timed section
        self.sim_start = 0.0

    def _build(self, **knobs):
        observability: bool | Observability = False
        if self.observe:
            observability = Observability(
                enabled=True, max_spans=MAX_SPANS, slos=SLOS,
            )
        # the WAN's propagation delay is part of the seeded input: a few
        # percent either way, so no simulated latency is a constant of
        # the benchmark rather than of the run
        wan_latency = 0.004 * seeded(self.seed, "wan").uniform(0.97, 1.03)
        self.vo = build_vo(
            seed=self.seed, monitors=False, lifecycle=False,
            wan_latency=wan_latency, observability=observability, **knobs,
        )
        return self.vo

    def set_up(self) -> None:
        raise NotImplementedError

    def run_timed(self) -> None:
        raise NotImplementedError

    def check(self, sim: Dict[str, float]) -> List[str]:
        """Workload-specific correctness findings (empty = correct)."""
        return []

    def inject_late_ms(self) -> np.ndarray:
        """Sorted lateness of the load generator per op, in simulated ms.

        There is no host-time pacing to be late against: an open-loop
        arrival is late by its tick quantisation, a closed-loop op never.
        """
        return np.zeros(0)


# ---------------------------------------------------------------------------
# open loop: openloop_steady / openloop_overload / openloop_observed
# ---------------------------------------------------------------------------


class OpenLoop(Workload):
    """Poisson arrivals against one hot RDM, never waiting for replies."""

    loop = "open"
    rate = 0.0  # ops per simulated second
    horizon = 0.0  # simulated seconds of timed arrivals at scale 1

    N_SITES = 8
    N_TYPES = 6
    ADMISSION_LIMIT = 64
    LABELS = ("resolve", "provision", "enact")
    SHARES = (0.90, 0.06, 0.04)
    TICK = 0.005
    WARMUP = 2.0
    REQUEST_TIMEOUT = 8.0
    DRAIN = REQUEST_TIMEOUT + 4.0

    def set_up(self) -> None:
        vo = self._build(
            n_sites=self.N_SITES, cache_enabled=True,
            admission_limit=self.ADMISSION_LIMIT, gram_overhead=0.05,
        )
        self.server = vo.site_names[1]
        self.clients = [s for s in vo.site_names if s != self.server]
        self.types = [f"OpenType{i:02d}" for i in range(self.N_TYPES)]
        self.keys: List[str] = []
        for type_name in self.types:
            self.keys.extend(register_active_type(vo, self.server, type_name))
        self.policy = RetryPolicy.single(self.REQUEST_TIMEOUT)
        # warm-up window: same rate, own stream, outcomes discarded
        self._offer("e2e-warmup", self.WARMUP)
        vo.sim.run(until=vo.sim.now + self.WARMUP)

    def _offer(self, stream: str, horizon: float) -> OpLedger:
        """Sample, label and start injecting ``horizon`` seconds of arrivals."""
        sim = self.vo.sim
        times = PoissonProcess(self.rate, name=stream).sample(horizon, self.seed)
        ops = OpLedger(times.size, self.LABELS)
        ops.label[:] = exact_mix(seeded(self.seed, stream), times.size, self.SHARES)
        ops.due[:] = times + sim.now
        request = self._request
        process = sim.process

        def fire(t: float, i: int) -> None:
            process(request(i, ops))

        CohortInjector(sim, ops.due, fire, tick=self.TICK).start()
        return ops

    def inject_late_ms(self) -> np.ndarray:
        due = self.ops.due
        return np.sort(np.ceil(due / self.TICK) * self.TICK - due) * 1000.0

    def _request(self, i: int, ops: OpLedger) -> Generator:
        op = self.LABELS[ops.label[i]]
        site = self.clients[i % len(self.clients)]
        if op == "enact":
            method = "instantiate"
            payload = {"key": self.keys[i % len(self.keys)], "demand": 0.01}
        else:
            method = "get_deployments"
            payload = {"type": self.types[i % self.N_TYPES],
                       "auto_deploy": op == "provision"}
        try:
            yield from self.vo.network.call(
                site, self.server, RDM_SERVICE, method,
                payload=payload, retry=self.policy,
            )
        except Overloaded:
            outcome = SHED
        except RpcTimeout:
            outcome = TIMEOUT
        except Exception:
            outcome = FAILED
        else:
            outcome = OK
        ops.outcome[i] = outcome
        ops.done[i] = self.vo.sim.now

    def run_timed(self) -> None:
        sim = self.vo.sim
        self.sim_start = sim.now
        self.sim_span = self.horizon * self.scale
        self.ops = self._offer("e2e-arrivals", self.sim_span)
        sim.run(until=self.sim_start + self.sim_span + self.DRAIN)


class OpenLoopSteady(OpenLoop):
    name = "openloop_steady"
    why = ("ROADMAP's end-to-end path at 0.55x capacity, every arrival served: "
           "deadline path + kernel dominate; claims about the 15x-450x gap land here")
    rate = 500.0
    horizon = 26.0


class OpenLoopOverload(OpenLoop):
    name = "openloop_overload"
    why = ("same layers at 2.8x capacity: admission refuses ~2/3, the rest queue; "
           "shows a change that speeds serving but slows refusing or error paths")
    rate = 2500.0
    horizon = 6.0
    allowed = (OK, SHED)

    def check(self, sim: Dict[str, float]) -> List[str]:
        problems = []
        if not 0.2 < sim["ok_share"] < 0.6:
            problems.append(
                f"ok_share {sim['ok_share']:.3f} outside (0.2, 0.6): admission "
                "control is not shedding the excess"
            )
        if self.scale >= 0.5 and not 700.0 <= sim["sim_goodput_ops_s"] <= 1100.0:
            problems.append(
                f"goodput {sim['sim_goodput_ops_s']:.0f}/s is off the "
                "~900/s plateau"
            )
        return problems


class OpenLoopObserved(OpenLoopSteady):
    name = "openloop_observed"
    why = ("openloop_steady's exact arrivals with tracing, metrics and two SLOs on: "
           "obs does the marginal work; obs-tax claims land here, steady is its bypass")
    observed = True


def register_active_type(vo, site: str, type_name: str) -> List[str]:
    """Register a type plus one ACTIVE deployment the way a client would;
    returns the deployment keys discovered through ``get_deployments``."""
    vo.run_process(vo.client_call(
        site, "register_type",
        payload={"xml": TYPE_XML.format(name=type_name, domain="e2e")},
    ))
    lower = type_name.lower()
    deployment = ActivityDeployment(
        name=f"{lower}-bin", type_name=type_name,
        kind=DeploymentKind.EXECUTABLE, site=site,
        path=f"/opt/deployments/{lower}/bin/run",
        home=f"/opt/deployments/{lower}", status=DeploymentStatus.ACTIVE,
    )
    vo.run_process(vo.client_call(
        site, "register_deployment", payload={"xml": deployment.wire_xml()},
    ))
    wires = vo.run_process(vo.client_call(
        site, "get_deployments",
        payload={"type": type_name, "auto_deploy": False},
    ))
    return sorted(str(w["epr"]["key"]) for w in wires)


# ---------------------------------------------------------------------------
# closed loop helpers
# ---------------------------------------------------------------------------


class ClosedLoop(Workload):
    """``CLIENTS`` clients, each issuing its next op when the last returned."""

    loop = "closed"
    CLIENTS = 16
    OPS_PER_CLIENT = 0
    WARMUP_OPS = 4
    #: seeded client start stagger, so seeds differ in more than names
    STAGGER = 0.005

    def _run_clients(self, per_client: int, ops: OpLedger, stream: str) -> None:
        """Run every client for ``per_client`` ops; returns when all finish."""
        sim = self.vo.sim
        offsets = seeded(self.seed, stream).uniform(0.0, self.STAGGER, self.CLIENTS)

        def client(c: int) -> Generator:
            yield sim.timeout(float(offsets[c]))
            for k in range(per_client):
                i = c * per_client + k
                ops.due[i] = sim.now
                ops.outcome[i] = yield from self._op(c, k, i, ops)
                ops.done[i] = sim.now

        procs = [sim.process(client(c)) for c in range(self.CLIENTS)]
        sim.run(until=sim.all_of(procs))

    def _set_up_vo(self) -> None:
        """Build the VO and register its content."""
        raise NotImplementedError

    def _plan(self, per_client: int, stream: str) -> None:
        """Draw the per-op inputs of one phase (``warmup`` or ``timed``)."""
        raise NotImplementedError

    def _op(self, c: int, k: int, i: int, ops: OpLedger) -> Generator:
        """Client ``c``'s ``k``-th op (ledger index ``i``); returns its outcome."""
        raise NotImplementedError

    def check(self, sim: Dict[str, float]) -> List[str]:
        if np.any(self.warm.outcome != OK):
            return ["a warm-up op failed"]
        return []

    def set_up(self) -> None:
        self._set_up_vo()
        self._plan(self.WARMUP_OPS, "warmup")
        self.warm = OpLedger(self.CLIENTS * self.WARMUP_OPS, self.LABELS)
        self._run_clients(self.WARMUP_OPS, self.warm, "warmup-stagger")

    def run_timed(self) -> None:
        sim = self.vo.sim
        per_client = scaled(self.OPS_PER_CLIENT, self.scale, floor=8)
        self._plan(per_client, "timed")
        self.ops = OpLedger(self.CLIENTS * per_client, self.LABELS)
        self.sim_start = sim.now
        self._run_clients(per_client, self.ops, "timed-stagger")
        self.sim_span = sim.now - self.sim_start


class ClosedLookup(ClosedLoop):
    name = "closed_lookup"
    why = ("paper Fig. 10 shape: named ATR lookups vs XPath over the WS-MDS index, "
           "bare RPC path; wsrf/mds dominate, bypass for every deadline/open-loop change")
    LABELS = ("lookup", "xpath")
    N_SITES = 8
    N_TYPES = 100
    OPS_PER_CLIENT = 420

    def _set_up_vo(self) -> None:
        vo = self._build(n_sites=self.N_SITES)
        self.server = vo.site_names[1]
        self.clients = [s for s in vo.site_names if s != self.server]
        self.types = [f"LookupType{i:03d}" for i in range(self.N_TYPES)]
        for i, type_name in enumerate(self.types):
            xml = TYPE_XML.format(name=type_name, domain=f"domain{i % 7}")
            vo.run_process(vo.client_call(
                self.server, "register_type", payload={"xml": xml},
            ))
            vo.run_process(vo.client_call(
                self.server, "register", payload={"xml": xml, "key": type_name},
                service=MDS_SERVICE,
            ))

    def _plan(self, per_client: int, stream: str) -> None:
        self.picks = seeded(self.seed, f"lookup-{stream}").integers(
            0, self.N_TYPES, size=self.CLIENTS * per_client,
        )

    def _op(self, c: int, k: int, i: int, ops: OpLedger) -> Generator:
        site = self.clients[c % len(self.clients)]
        type_name = self.types[self.picks[i]]
        xpath = (c + k) % 2
        ops.label[i] = xpath
        try:
            if xpath:
                found = yield from self.vo.network.call(
                    site, self.server, MDS_SERVICE, "query",
                    payload=f"//ActivityTypeEntry[@name='{type_name}']",
                )
                good = len(found) == 1
            else:
                wire = yield from self.vo.network.call(
                    site, self.server, ATR_SERVICE, "lookup_type",
                    payload=type_name,
                )
                good = wire is not None and wire["name"] == type_name
        except Exception:
            return FAILED
        return OK if good else FAILED


class OverlayResolve(ClosedLoop):
    name = "overlay_resolve"
    why = ("64 sites in 16 super-peer groups, digests + routed sharded storage: "
           "glare resolution, overlay, topology routing and wire sizing dominate; "
           "bare RPC path")
    LABELS = ("cached", "remote", "missing")
    SHARES = (0.80, 0.15, 0.05)
    N_SITES = 64
    GROUP_SIZE = 4
    TYPES_PER_SITE = 10
    HOT_TYPES = 8
    #: the warm-up resolves each hot type once, so the timed section
    #: finds the hot set in the client site's registry cache
    WARMUP_OPS = HOT_TYPES
    MISSING_NAMES = 4
    OPS_PER_CLIENT = 240

    def _set_up_vo(self) -> None:
        vo = self._build(
            n_sites=self.N_SITES, cache_enabled=True, group_size=self.GROUP_SIZE,
            resolution=ResolutionConfig.all_on(),
            storage=StorageConfig.sharded(shards=4, routing=True),
        )
        names = vo.site_names
        # name lengths (and their range) vary with the seed, so message
        # sizes and the latency of a cached resolution are inputs of the
        # run, not constants of the benchmark
        rng = seeded(self.seed, "overlay-names")
        tails = rng.integers(
            0, rng.integers(8, 64), size=self.N_SITES * self.TYPES_PER_SITE,
        )
        # Bulk-load before the overlay forms, so claims reach super-peer
        # digests and shard owners through the real bulk-note hand-off.
        self.home_of: Dict[str, str] = {}
        for index, tail in enumerate(tails):
            home = names[index % self.N_SITES]
            type_name = f"OverlayType{index:04d}{'x' * int(tail)}"
            stack = vo.stack(home)
            stack.atr.add_local_type(ActivityType.from_xml(
                TYPE_XML.format(name=type_name, domain="overlay")
            ))
            lower = type_name.lower()
            stack.adr.add_local_deployment(ActivityDeployment(
                name=f"{lower}-bin", type_name=type_name,
                kind=DeploymentKind.EXECUTABLE, site=home,
                path=f"/opt/deployments/{lower}/bin/run",
                home=f"/opt/deployments/{lower}",
                status=DeploymentStatus.ACTIVE,
            ))
            self.home_of[type_name] = home
        # failure-detector pings are background traffic proportional to
        # the site count; parked so messages-per-op is resolution cost
        for site in names:
            vo.rdm(site).overlay.probe_interval = 1e9
        groups = vo.form_overlay()
        vo.sim.run(until=vo.sim.now + 16.0)  # directory hand-off + retries
        if len(groups) != self.CLIENTS:
            raise RuntimeError(
                f"expected {self.CLIENTS} super-peer groups, got {len(groups)}"
            )
        # one client per group, on a member that is not the super-peer
        rng = seeded(self.seed, "overlay-plan")
        self.clients = []
        self.hot: List[List[str]] = []
        self.cold: List[List[str]] = []
        all_types = sorted(self.home_of)
        for super_peer in sorted(groups):
            members = sorted(groups[super_peer])
            self.clients.append(next(s for s in members if s != super_peer))
            outside = [t for t in all_types if self.home_of[t] not in members]
            order = rng.permutation(len(outside))
            chosen = [outside[j] for j in order]
            self.hot.append(chosen[:self.HOT_TYPES])
            self.cold.append(chosen[self.HOT_TYPES:])
        self.cold_cursor = [0] * self.CLIENTS

    def _plan(self, per_client: int, stream: str) -> None:
        n = self.CLIENTS * per_client
        if stream == "warmup":
            self.kinds = np.zeros(n, dtype=np.int8)
            self.picks = np.tile(np.arange(per_client), self.CLIENTS)
            return
        rng = seeded(self.seed, f"overlay-{stream}")
        self.kinds = np.concatenate([
            exact_mix(rng, per_client, self.SHARES) for _ in range(self.CLIENTS)
        ])
        self.picks = rng.integers(0, 1 << 30, size=n)

    def _op(self, c: int, k: int, i: int, ops: OpLedger) -> Generator:
        kind = int(self.kinds[i])
        pick = int(self.picks[i])
        if kind == 0:
            type_name = self.hot[c][pick % self.HOT_TYPES]
        elif kind == 1:
            type_name = self.cold[c][self.cold_cursor[c]]
            self.cold_cursor[c] += 1
        else:
            type_name = f"NoSuchType{c:02d}-{pick % self.MISSING_NAMES}"
        ops.label[i] = kind
        try:
            wires = yield from self.vo.client_call(
                self.clients[c], "get_deployments",
                payload={"type": type_name, "auto_deploy": False},
            )
        except Exception as error:
            missing = type(error).__name__ == "TypeNotFound"
            return OK if (kind == 2 and missing) else FAILED
        resolved = bool(wires) and all(w["type"] == type_name for w in wires)
        return OK if (kind != 2 and resolved) else FAILED

    def check(self, sim: Dict[str, float]) -> List[str]:
        problems = super().check(sim)
        rdm = [self.vo.rdm(site).request_manager for site in self.clients]
        local = sum(m.resolved_locally for m in rdm)
        cached_ops = int(np.count_nonzero(self.ops.label == 0))
        if local < cached_ops:
            problems.append(
                f"only {local} local resolutions for {cached_ops} cached ops: "
                "the registry cache is not serving the hot set"
            )
        return problems


class RolloutChurn(Workload):
    name = "rollout_churn"
    loop = "closed"
    why = ("the write path: register, bulk rollout to 31 sites, undeploy, repeated: "
           "deploy-file parse, GridFTP, GRAM, handlers, registry puts; shows a "
           "lookup-side gain that costs writes")
    LABELS = ("install", "undeploy")
    N_SITES = 32
    GROUP_SIZE = 8
    FANOUT = 8
    #: application -> every type a rollout of it leaves deployed
    APPS = {
        "Wien2k": ("Wien2k",),
        "Counter": ("Counter",),
        "Invmod": ("Invmod",),
        "JPOVray": ("JPOVray", "Ant", "Java"),
    }
    ROUNDS = 4
    SAMPLE_EVERY = 1.0  # installs take simulated minutes

    def set_up(self) -> None:
        vo = self._build(
            n_sites=self.N_SITES, group_size=self.GROUP_SIZE, contention=True,
            provisioning=ProvisioningConfig.all_on(rollout_fanout=self.FANOUT),
        )
        publish_applications(vo)
        vo.form_overlay()
        self.initiator = vo.community_site
        # The initiator pushes to the rest of the fleet.  It is not a
        # target itself: its registry keeps a cached copy of its own
        # deployment across an undeploy, so a repeated rollout would
        # report it "present" instead of installing (see README).
        self.targets = [s for s in vo.site_names if s != self.initiator]
        for base in base_hierarchy_types():
            self._register(base.wire_xml())
        for dependency in ("Java", "Ant"):
            self._register(get_application(dependency).type_xml)
        # warm-up: one full cycle, so probe caches and the first replica
        # catalog entries exist before the timed cycles
        self.warm = OpLedger(self._cycle_ops(("Wien2k",)), self.LABELS)
        self._cycle("Wien2k", self.warm, 0)

    def _register(self, xml: str) -> None:
        self.vo.run_process(self.vo.client_call(
            self.initiator, "register_type", payload={"xml": xml},
        ))

    def _cycle_ops(self, apps: Sequence[str]) -> int:
        return sum(len(self.targets) * (1 + len(self.APPS[app])) for app in apps)

    def _cycle(self, app: str, ops: OpLedger, cursor: int) -> int:
        """register -> rollout -> undeploy everywhere; returns the next index."""
        vo = self.vo
        sim = vo.sim
        spec = get_application(app)
        self._register(spec.type_xml)
        started = sim.now
        result = vo.run_process(vo.client_call(
            self.initiator, "rollout",
            payload={"type_xml": spec.type_xml, "target_sites": self.targets},
        ))
        for leg in result["results"]:
            installed = leg["status"] == "installed" and leg["deployments"]
            ops.label[cursor] = 0
            ops.due[cursor] = started
            # a leg is done when the target registered its deployments
            ops.done[cursor] = (
                max(float(w["epr"]["lut"]) for w in leg["deployments"])
                if installed else sim.now
            )
            ops.outcome[cursor] = OK if installed else FAILED
            cursor += 1

        def undeploy(site: str, type_name: str, i: int) -> Generator:
            ops.label[i] = 1
            ops.due[i] = sim.now
            try:
                # files stay: the replica catalog keeps listing a site's
                # archive copy after an undeploy, so removing the files
                # makes the next rollout's download fail (see README)
                reply = yield from vo.network.call(
                    self.initiator, site, RDM_SERVICE, "undeploy_type",
                    payload={"type": type_name, "remove_files": False},
                )
                good = len(reply["deployments_removed"]) >= 1
            except Exception:
                good = False
            ops.outcome[i] = OK if good else FAILED
            ops.done[i] = sim.now

        procs = []
        for type_name in self.APPS[app]:
            for site in self.targets:
                procs.append(sim.process(undeploy(site, type_name, cursor)))
                cursor += 1
        sim.run(until=sim.all_of(procs))
        return cursor

    def run_timed(self) -> None:
        sim = self.vo.sim
        rng = seeded(self.seed, "rollout-order")
        apps = sorted(self.APPS)
        rounds = scaled(self.ROUNDS, self.scale)
        if self.scale < 0.5:
            apps = ["JPOVray"]  # a shrunk run keeps the dependency chain
        plan = [apps[j] for _ in range(rounds) for j in rng.permutation(len(apps))]
        self.ops = OpLedger(self._cycle_ops(plan), self.LABELS)
        self.sim_start = sim.now
        cursor = 0
        for app in plan:
            cursor = self._cycle(app, self.ops, cursor)
        self.sim_span = sim.now - self.sim_start

    def check(self, sim: Dict[str, float]) -> List[str]:
        problems = []
        if np.any(self.warm.outcome != OK):
            problems.append("warm-up rollout cycle did not install everywhere")
        left = sum(
            len(self.vo.stack(site).adr.local_deployments_for(type_name))
            for site in self.targets
            for types in self.APPS.values() for type_name in types
        )
        if left:
            problems.append(f"{left} deployments survive the final undeploy")
        return problems


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (OpenLoopSteady, OpenLoopOverload, OpenLoopObserved,
                ClosedLookup, OverlayResolve, RolloutChurn)
}
