"""Fig. 18 (extension): the registry stack under open-loop overload.

Every other experiment drives the VO with closed-loop clients, which
self-throttle the moment the service slows down — so ``admission_limit``
shedding never engages and "capacity" is never actually crossed.  This
experiment uses the `repro.load` workload plane to offer *open-loop*
population traffic at configured multiples of measured capacity and
watches how the stack degrades.

Three scenarios, all deterministic and fan-out-able via
:mod:`repro.runner`:

**Offered-load sweep** (:func:`run_fig18_point`) — Poisson arrivals at
0.5x–4x the capacity a closed-loop probe measured, mixed across three
op classes (activity *resolution*, ensure-provisioned *provisioning*,
and AGWL workflow *enactment* through GRAM).  Reports goodput, shed
rate, timeout rate and p50/p99/p99.9 latency per op class from
streaming histograms.  The acceptance property is *graceful
degradation*: past 1x, goodput plateaus near capacity while admission
control sheds the excess — it must not collapse.

**Flash crowd** (:func:`run_fig18_flash`) — steady background mix at
0.7x capacity plus one activity type whose arrival rate steps up 100x
mid-run (non-homogeneous Poisson via thinning).  Reports
before/during/after phase stats for the hot type vs the background.

**Mass-provisioning wave** (:func:`run_fig18_wave`) — every site
installs a batch of freshly published activity types (archive download
+ build steps under fair-share link contention), arrivals staggered by
an open-loop exponential schedule.  Reports the time-to-ready
*distribution* (p50/p90/p99/max), not just a mean.

Determinism: arrival traces, mix assignment and the simulation itself
are all seeded; every request outcome folds into an order-independent
:class:`~repro.load.stats.CommutativeDigest`, so a double run must
agree bit-for-bit (the experiment declares a repeat of the 2x point)
and ``--jobs`` fan-out merges to the same fingerprint regardless of
worker scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_table
from repro.experiments.workload import (
    PhasedLoad,
    publish_installable_type,
    serve_types,
)
from repro.glare.errors import CLIENT_ERRORS
from repro.glare.rdm import RDM_SERVICE
from repro.load import (
    CohortInjector,
    NHPoissonProcess,
    OpenLoopDriver,
    PoissonProcess,
    StepRate,
    StreamStats,
    TrafficMix,
    arrival_stream,
)
from repro.load.stats import CommutativeDigest
from repro.net.interceptors import TRANSIENT_ERRORS
from repro.obs.metrics import Histogram
from repro.runner import WorkUnit
from repro.vo import build_vo

#: op classes and their share of open-loop traffic
MIX_WEIGHTS = {"resolve": 0.90, "provision": 0.06, "enact": 0.04}

#: arrival quantisation grid (cohort width) for the sweep scenarios
TICK = 0.005

#: goodput window for the streaming per-window counters
WINDOW = 2.0

#: per-request deadline; overload past it surfaces as RpcTimeout
REQUEST_TIMEOUT = 8.0

#: post-horizon drain so in-flight requests resolve or time out
DRAIN = REQUEST_TIMEOUT + 4.0


# ---------------------------------------------------------------------------
# VO construction + content
# ---------------------------------------------------------------------------


def _build_overload_vo(seed: int, n_sites: int, admission_limit: Optional[int]):
    """A VO shaped for overload measurement: one hot server site.

    Monitors/lifecycle off (no background churn in the latency
    profile); caches on (steady-state production path); GRAM overhead
    shrunk so enactment latency is dominated by modelled work, not the
    1 s testbed submission constant.
    """
    return build_vo(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=True,
        monitors=False,
        lifecycle=False,
        admission_limit=admission_limit,
        gram_overhead=0.05,
    )


def _setup_content(vo, server: str, n_types: int) -> List[str]:
    """Resolvable ``Fig18TypeNN`` types with ACTIVE deployments on
    ``server``; returns the deployment keys (for ``instantiate``)."""
    return serve_types(vo, server, "Fig18Type", n_types, "overload")


def _mix_call(driver: OpenLoopDriver, kind: str, index: int,
              client_sites: List[str], server: str, n_types: int,
              keys: List[str]) -> Generator:
    """Arrival ``index`` of op class ``kind`` against the hot server."""
    site = client_sites[index % len(client_sites)]
    if kind == "enact":  # one AGWL activity instance through GRAM
        payload = {"key": keys[index % len(keys)], "demand": 0.01}
        value = yield from driver.call(site, server, "instantiate", payload)
    else:  # resolve, or provision: the same lookup with auto-deploy on
        payload = {"type": f"Fig18Type{index % n_types:02d}",
                   "auto_deploy": kind == "provision"}
        value = yield from driver.call(site, server, "get_deployments", payload)
    return value


# ---------------------------------------------------------------------------
# Capacity probe
# ---------------------------------------------------------------------------


def run_fig18_capacity(
    seed: int = 41,
    n_sites: int = 8,
    admission_limit: Optional[int] = 64,
    n_types: int = 6,
    clients: int = 40,
    horizon: float = 12.0,
    warmup: float = 3.0,
) -> float:
    """Measured capacity: closed-loop resolution throughput, req/s.

    A saturating closed-loop client pool (enough concurrency to keep
    the server CPU busy, not enough to trip admission) measures what
    the hot site can actually complete per second.  The sweep's
    offered-load multiples are anchored to this number, and the value
    is deterministic for a seed — it participates in the workload
    fingerprint.
    """
    vo = _build_overload_vo(seed, n_sites, admission_limit)
    server = vo.site_names[1]
    client_sites = [s for s in vo.site_names if s != server]
    _setup_content(vo, server, n_types)
    completed = [0]

    def probe_client(index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        type_name = f"Fig18Type{index % n_types:02d}"
        while vo.sim.now < horizon:
            try:
                yield from vo.network.call(
                    site, server, RDM_SERVICE, "get_deployments",
                    payload={"type": type_name, "auto_deploy": False},
                )
            except TRANSIENT_ERRORS:
                continue
            if vo.sim.now >= warmup:
                completed[0] += 1

    for i in range(clients):
        vo.sim.process(probe_client(i), name=f"fig18-probe-{i}")
    vo.sim.run(until=horizon)
    capacity = completed[0] / (horizon - warmup)
    # round to keep downstream arrival-rate floats tidy in reports
    return round(capacity, 1)


# ---------------------------------------------------------------------------
# Offered-load sweep
# ---------------------------------------------------------------------------


@dataclass
class Fig18Point:
    """One offered-load multiple of the open-loop sweep."""

    multiple: float
    capacity: float
    offered_rate: float
    arrivals: int
    measured_arrivals: int
    completed: int
    shed: int
    timeouts: int
    failed: int
    goodput: float
    per_op: Dict[str, Dict[str, float]] = field(default_factory=dict)
    server_shed_by_op: Dict[str, int] = field(default_factory=dict)
    result_digest: str = ""
    stats_footprint_bytes: int = 0

    @property
    def shed_rate(self) -> float:
        measured = self.completed + self.shed + self.timeouts + self.failed
        return self.shed / measured if measured else 0.0

    @property
    def timeout_rate(self) -> float:
        measured = self.completed + self.shed + self.timeouts + self.failed
        return self.timeouts / measured if measured else 0.0


def run_fig18_point(
    multiple: float,
    capacity: float,
    seed: int = 41,
    n_sites: int = 8,
    admission_limit: Optional[int] = 64,
    n_types: int = 6,
    horizon: float = 50.0,
    warmup: float = 10.0,
    request_timeout: float = REQUEST_TIMEOUT,
) -> Fig18Point:
    """One sweep point: open-loop mixed traffic at ``multiple``x capacity."""
    vo = _build_overload_vo(seed, n_sites, admission_limit)
    server = vo.site_names[1]
    client_sites = [s for s in vo.site_names if s != server]
    keys = _setup_content(vo, server, n_types)

    offered = multiple * capacity
    mix = TrafficMix(MIX_WEIGHTS, name="fig18-mix")
    times = PoissonProcess(offered, name="fig18-arrivals").sample(horizon, seed)
    assignment = mix.assign(times.size, seed)

    # content setup consumed simulated time; run the workload relative
    # to the post-setup clock so the horizon/warmup windows line up
    t0 = vo.sim.now
    stats = StreamStats(window=WINDOW)
    driver = OpenLoopDriver(vo, stats, request_timeout=request_timeout,
                            warmup=t0 + warmup)

    def make_call(op: str, index: int) -> Generator:
        return _mix_call(driver, op, index, client_sites, server, n_types, keys)

    def fire(t: float, i: int) -> None:
        driver.fire(mix.ops[assignment[i]], t, i, make_call)

    injector = CohortInjector(vo.sim, times + t0, fire, tick=TICK)
    injector.start()
    vo.sim.run(until=t0 + horizon + DRAIN)

    measured = int(np.count_nonzero(times >= warmup))
    span = horizon - warmup
    per_op = {
        op: dict(stats.ops[op].latency.to_dict(),
                 completed=stats.ops[op].completed,
                 shed=stats.ops[op].shed,
                 timeouts=stats.ops[op].timeouts,
                 failed=stats.ops[op].failed)
        for op in sorted(stats.ops)
    }
    return Fig18Point(
        multiple=multiple,
        capacity=capacity,
        offered_rate=offered,
        arrivals=int(times.size),
        measured_arrivals=measured,
        completed=stats.completed,
        shed=stats.shed_total,
        timeouts=stats.timeout_total,
        failed=stats.failed_total,
        goodput=stats.completed / span,
        per_op=per_op,
        server_shed_by_op=dict(sorted(vo.rdm(server).shed_by_op.items())),
        result_digest=stats.fingerprint(),
        stats_footprint_bytes=stats.footprint_bytes(),
    )


# ---------------------------------------------------------------------------
# Flash crowd
# ---------------------------------------------------------------------------


@dataclass
class Fig18Flash:
    """Before/during/after phase stats of the 100x hot-type spike."""

    capacity: float
    hot_spike_rate: float
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    result_digest: str = ""


def run_fig18_flash(
    capacity: float,
    seed: int = 41,
    n_sites: int = 8,
    admission_limit: Optional[int] = 64,
    n_types: int = 6,
    horizon: float = 60.0,
    warmup: float = 8.0,
    spike_start: float = 24.0,
    spike_end: float = 40.0,
    request_timeout: float = REQUEST_TIMEOUT,
) -> Fig18Flash:
    """Background mix at 0.7x capacity + one type spiking 100x.

    The hot type idles at 2% of capacity and steps 100x to 2x capacity
    during ``[spike_start, spike_end)`` — total offered load crosses
    capacity only while the spike is up, so the phase comparison
    isolates what the flash crowd does to everyone else.
    """
    vo = _build_overload_vo(seed, n_sites, admission_limit)
    server = vo.site_names[1]
    client_sites = [s for s in vo.site_names if s != server]
    keys = _setup_content(vo, server, n_types)

    load = PhasedLoad(
        vo, (("before", 0.0, spike_start), ("during", spike_start, spike_end),
             ("after", spike_end, horizon)),
        warmup=warmup, request_timeout=request_timeout, window=WINDOW)

    mix = TrafficMix(MIX_WEIGHTS, name="fig18-flash-mix")
    bg_times = PoissonProcess(0.7 * capacity, name="fig18-flash-bg").sample(horizon, seed)
    bg_assignment = mix.assign(bg_times.size, seed)

    hot_base = 0.02 * capacity
    hot_spike = 100.0 * hot_base  # 2x capacity while the spike is up
    hot_rate = StepRate(hot_base, hot_spike, spike_start, spike_end)
    hot_times = NHPoissonProcess(hot_rate, name="fig18-flash-hot").sample(horizon, seed)

    def make_bg_call(op: str, index: int) -> Generator:
        return _mix_call(load.driver(op), op.split("|", 1)[1], index,
                         client_sites, server, n_types, keys)

    def make_hot_call(op: str, index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        payload = {"type": "Fig18Type00", "auto_deploy": False}
        value = yield from load.driver(op).call(
            site, server, "get_deployments", payload)
        return value

    load.inject(bg_times, lambda i: mix.ops[bg_assignment[i]], make_bg_call, TICK)
    load.inject(hot_times, lambda i: "hot", make_hot_call, TICK)
    vo.sim.run(until=load.t0 + horizon + DRAIN)

    out_phases: Dict[str, Dict[str, float]] = {}
    for name, s, span in load.measured():
        hot_key = f"{name}|hot"
        hot_digest = s.ops[hot_key].latency if hot_key in s.ops else Histogram()
        bg_resolve = s.ops.get(f"{name}|resolve")
        out_phases[name] = {
            "arrivals": s.offered,
            "completed": s.completed,
            "shed": s.shed_total,
            "timeouts": s.timeout_total,
            "goodput": s.completed / span if span > 0 else 0.0,
            "hot_completed": hot_digest.count,
            "hot_p99_ms": hot_digest.p99 * 1000.0,
            "bg_p99_ms": (bg_resolve.latency.p99 * 1000.0 if bg_resolve else 0.0),
        }
    digest = hashlib.sha256(load.fingerprint().encode()).hexdigest()
    return Fig18Flash(
        capacity=capacity,
        hot_spike_rate=hot_spike,
        phases=out_phases,
        result_digest=digest,
    )


# ---------------------------------------------------------------------------
# Mass-provisioning wave
# ---------------------------------------------------------------------------


@dataclass
class Fig18Wave:
    """Time-to-ready distribution of a cross-VO provisioning wave."""

    installs: int
    statuses: Dict[str, int] = field(default_factory=dict)
    ttr: Dict[str, float] = field(default_factory=dict)
    wave_seconds: float = 0.0
    result_digest: str = ""


def run_fig18_wave(
    seed: int = 41,
    n_sites: int = 8,
    n_types: int = 18,
    span: float = 90.0,
) -> Fig18Wave:
    """Install ``n_types`` fresh types on every site, open-loop staggered.

    Every (type, site) pair is one install request: archive download
    from the origin under fair-share link contention, expand, and two
    build steps on the target's CPU.  Requests start on an exponential
    open-loop schedule across ``span`` seconds in a seeded shuffled
    order, so concurrent downloads genuinely contend.  Reports the
    *distribution* of time-to-ready, not a mean.
    """
    vo = build_vo(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=True,
        monitors=False,
        lifecycle=False,
        contention=True,
    )
    community = vo.community_site
    wave_types: List[Tuple[str, str]] = []
    for i in range(n_types):
        name = f"Wave{i:02d}"
        wave_types.append((name, publish_installable_type(
            vo, name, domain="wave",
            archive_size=2_000_000 + 350_000 * (i % 7),
            configure_demand=0.3 + 0.05 * (i % 5), install_demand=0.2,
            binary_size=400_000 + 10_000 * i,
        )))

    units = [(t, s) for t in range(n_types) for s in vo.site_names]
    rng = arrival_stream(seed, "fig18-wave")
    order = rng.permutation(len(units))
    gaps = rng.exponential(span / max(len(units), 1), len(units))
    times = np.cumsum(gaps)

    ttr = Histogram()
    statuses: Dict[str, int] = {}
    digest = CommutativeDigest()

    def install(type_index: int, site: str) -> Generator:
        name, type_xml = wave_types[type_index]
        start = vo.sim.now
        try:
            result = yield from vo.network.call(
                community, site, RDM_SERVICE, "deploy",
                payload={"type_xml": type_xml},
            )
            if isinstance(result, dict):
                status = "installed" if result.get("success", True) else "failed"
            else:
                status = "installed"
        except CLIENT_ERRORS as error:
            status = f"error:{type(error).__name__}"
        duration = vo.sim.now - start
        ttr.observe(duration)
        statuses[status] = statuses.get(status, 0) + 1
        digest.fold(f"{name}|{site}|{status}|{duration:.6f}")

    procs: List = []

    def fire(t: float, i: int) -> None:
        type_index, site = units[int(order[i])]
        procs.append(vo.sim.process(install(type_index, site)))

    start_now = vo.sim.now
    CohortInjector(vo.sim, times + start_now, fire, tick=0.01).start()
    # two stages: let every arrival fire, then drain the installs (the
    # VO keeps periodic machinery alive, so run-to-exhaustion never ends)
    vo.sim.run(until=start_now + float(times[-1]) + 0.02)
    vo.sim.run(until=vo.sim.all_of(procs))

    dist = ttr.to_dict()
    return Fig18Wave(
        installs=len(units),
        statuses=dict(sorted(statuses.items())),
        ttr={
            "p50_s": dist["p50_ms"] / 1000.0,
            "p90_s": dist["p90_ms"] / 1000.0,
            "p99_s": dist["p99_ms"] / 1000.0,
            "max_s": dist["max_ms"] / 1000.0,
        },
        wave_seconds=vo.sim.now - start_now,
        result_digest=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# Formatting + declaration
# ---------------------------------------------------------------------------


#: sweep multiples of measured capacity (the ISSUE's 0.5x–4x)
MULTIPLES = (0.5, 1.0, 2.0, 4.0)


def format_fig18(points: List[Fig18Point], flash: Fig18Flash,
                 wave: Fig18Wave) -> str:
    """Render the sweep, flash-crowd and wave reports."""
    headers = ["offered", "rate/s", "goodput/s", "shed%", "timeout%",
               "resolve p50/p99/p99.9 ms", "provision p99 ms", "enact p99 ms"]
    rows = []
    for p in points:
        resolve = p.per_op.get("resolve", {})
        provision = p.per_op.get("provision", {})
        enact = p.per_op.get("enact", {})
        rows.append([
            f"{p.multiple:.1f}x",
            f"{p.offered_rate:.0f}",
            f"{p.goodput:.0f}",
            f"{100.0 * p.shed_rate:.1f}",
            f"{100.0 * p.timeout_rate:.1f}",
            (f"{resolve.get('p50_ms', 0.0):.1f}/"
             f"{resolve.get('p99_ms', 0.0):.1f}/"
             f"{resolve.get('p999_ms', 0.0):.1f}"),
            f"{provision.get('p99_ms', 0.0):.1f}",
            f"{enact.get('p99_ms', 0.0):.1f}",
        ])
    out = [format_table(
        headers, rows,
        title=(f"Fig. 18 — open-loop overload sweep "
               f"(measured capacity {points[0].capacity:.0f} req/s)"),
    )]
    shed_attribution = max(
        points, key=lambda p: sum(p.server_shed_by_op.values()),
    ).server_shed_by_op
    if shed_attribution:
        detail = ", ".join(f"{op}={n}" for op, n in shed_attribution.items())
        out.append(f"server shed by op (worst point): {detail}")

    flash_headers = ["phase", "arrivals", "goodput/s", "shed", "timeouts",
                     "hot completed", "hot p99 ms", "bg p99 ms"]
    flash_rows = []
    for name in ("before", "during", "after"):
        ph = flash.phases.get(name, {})
        flash_rows.append([
            name,
            int(ph.get("arrivals", 0)),
            f"{ph.get('goodput', 0.0):.0f}",
            int(ph.get("shed", 0)),
            int(ph.get("timeouts", 0)),
            int(ph.get("hot_completed", 0)),
            f"{ph.get('hot_p99_ms', 0.0):.1f}",
            f"{ph.get('bg_p99_ms', 0.0):.1f}",
        ])
    out.append(format_table(
        flash_headers, flash_rows,
        title=(f"Fig. 18 — flash crowd (one type spikes 100x to "
               f"{flash.hot_spike_rate:.0f}/s)"),
    ))

    statuses = ", ".join(f"{k}={v}" for k, v in wave.statuses.items())
    out.append(
        f"mass-provisioning wave: {wave.installs} installs over "
        f"{wave.wave_seconds:.0f}s — time-to-ready p50 {wave.ttr['p50_s']:.1f}s, "
        f"p90 {wave.ttr['p90_s']:.1f}s, p99 {wave.ttr['p99_s']:.1f}s, "
        f"max {wave.ttr['max_s']:.1f}s ({statuses})"
    )
    out.append(
        "open-loop arrivals (cohort-injected, seeded) vs closed-loop "
        "probes elsewhere; shed = admission-control Overloaded, "
        "timeout = per-request deadline exceeded."
    )
    return "\n".join(out)


def _units(grid: Dict[str, Dict]) -> List[WorkUnit]:
    """Sweep points (+ a repeat of 2x), flash crowd and wave.

    The capacity probe runs here, before anything fans out: every
    offered-load multiple is anchored to the number it measures.
    """
    capacity = run_fig18_capacity(**grid["capacity"])
    point = "repro.experiments.fig18:run_fig18_point"
    units = [
        WorkUnit(f"fig18:x{multiple}", point,
                 dict(grid["sweep"], multiple=multiple, capacity=capacity))
        for multiple in MULTIPLES
    ]
    units.append(WorkUnit("fig18:x2.0-repeat", point,
                          dict(grid["sweep"], multiple=2.0, capacity=capacity)))
    units.append(WorkUnit("fig18:flash", "repro.experiments.fig18:run_fig18_flash",
                          dict(grid["flash"], capacity=capacity)))
    units.append(WorkUnit("fig18:wave", "repro.experiments.fig18:run_fig18_wave",
                          grid["wave"]))
    return units


def _points(results: Results) -> List[Fig18Point]:
    return [results[f"fig18:x{multiple}"] for multiple in MULTIPLES]


def _check(results: Results) -> None:
    """Graceful degradation: goodput must plateau near capacity with
    shedding engaged, not collapse under 4x offered load."""
    points = _points(results)
    at_1x = next(p for p in points if p.multiple == 1.0)
    at_max = max(points, key=lambda p: p.multiple)
    if at_1x.goodput <= 0:
        raise AssertionError("fig18: zero goodput at 1x offered load")
    if at_max.goodput < 0.6 * at_1x.goodput:
        raise AssertionError(
            f"fig18: goodput collapsed under overload "
            f"({at_max.goodput:.1f}/s at {at_max.multiple}x vs "
            f"{at_1x.goodput:.1f}/s at 1x)"
        )
    if at_max.shed == 0:
        raise AssertionError(
            f"fig18: no shedding at {at_max.multiple}x offered load — "
            "admission control never engaged"
        )


EXPERIMENT = Experiment(
    name="fig18",
    summary="open-loop overload sweep, flash crowd and provisioning wave",
    quick={
        "capacity": dict(n_sites=6, clients=24, horizon=8.0, warmup=2.0),
        "sweep": dict(n_sites=6, horizon=16.0, warmup=4.0),
        "flash": dict(n_sites=6, horizon=24.0, warmup=4.0,
                      spike_start=9.0, spike_end=16.0),
        "wave": dict(n_sites=6, n_types=8, span=30.0),
    },
    full={"capacity": {}, "sweep": {}, "flash": {}, "wave": {}},
    units=_units,
    repeats={"fig18:x2.0-repeat": "fig18:x2.0"},
    check=_check,
    render=lambda results: format_fig18(
        _points(results), results["fig18:flash"], results["fig18:wave"]),
)
