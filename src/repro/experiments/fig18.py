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

The sweep point (one phase) and the flash crowd (three) are
declarations over :class:`~repro.experiments.workload.OpenLoopScenario`,
on one VO shape with one hot server site; the capacity probe is
:func:`~repro.experiments.workload.spawn_clients` on the same VO.

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
    REQUEST_TIMEOUT,
    OpenLoopScenario,
    publish_installable_type,
    serve_types,
    spawn_clients,
)
from repro.glare.errors import CLIENT_ERRORS
from repro.glare.rdm import RDM_SERVICE
from repro.load import (
    CohortInjector,
    NHPoissonProcess,
    PoissonProcess,
    StepRate,
    TrafficMix,
    arrival_stream,
)
from repro.load.stats import CommutativeDigest
from repro.obs.metrics import Histogram
from repro.runner import WorkUnit
from repro.vo import build_vo

#: op classes and their share of open-loop traffic
MIX_WEIGHTS = {"resolve": 0.90, "provision": 0.06, "enact": 0.04}


# ---------------------------------------------------------------------------
# The scenario: one hot server site
# ---------------------------------------------------------------------------


def _scenario(seed: int, n_sites: int, admission_limit: Optional[int],
              n_types: int, phases=(), warmup: float = 0.0,
              request_timeout: float = REQUEST_TIMEOUT) -> OpenLoopScenario:
    """fig18's scenario: the shared VO shape, unchanged, serving
    resolvable ``Fig18TypeNN`` types with ACTIVE deployments on its
    server (their keys are what ``instantiate`` takes)."""
    return OpenLoopScenario(
        build_vo(OpenLoopScenario.config(seed, n_sites, admission_limit)),
        lambda vo, server: serve_types(vo, server, "Fig18Type", n_types, "overload"),
        phases, warmup, request_timeout)


def _mix_call(scenario: OpenLoopScenario, op: str, index: int,
              n_types: int) -> Tuple[str, str, str, dict]:
    """Arrival ``index`` of op label ``op`` against the hot server."""
    site = scenario.clients[index % len(scenario.clients)]
    kind = op.rpartition("|")[2]
    if kind == "enact":  # one AGWL activity instance through GRAM
        keys = scenario.keys
        return site, scenario.server, "instantiate", {
            "key": keys[index % len(keys)], "demand": 0.01}
    # resolve, or provision: the same lookup with auto-deploy on
    return site, scenario.server, "get_deployments", {
        "type": f"Fig18Type{index % n_types:02d}", "auto_deploy": kind == "provision"}


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
    scenario = _scenario(seed, n_sites, admission_limit, n_types)
    vo = scenario.vo

    def request_factory(index: int):
        site, server, method, payload = _mix_call(scenario, "resolve", index, n_types)
        return lambda: vo.network.call(site, server, RDM_SERVICE, method, payload=payload)

    stats = spawn_clients(vo.sim, clients, request_factory, until=horizon,
                          warmup=warmup)
    vo.sim.run(until=horizon)
    # round to keep downstream arrival-rate floats tidy in reports
    return round(stats.completed / (horizon - warmup), 1)


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
    """One sweep point: open-loop mixed traffic at ``multiple``x capacity,
    a one-phase scenario (so its op labels are the bare op classes)."""
    scenario = _scenario(seed, n_sites, admission_limit, n_types,
                         (("sweep", 0.0, horizon),), warmup, request_timeout)
    offered = multiple * capacity
    times = scenario.inject(PoissonProcess(offered, name="fig18-arrivals"),
                            TrafficMix(MIX_WEIGHTS, name="fig18-mix"),
                            lambda op, i: _mix_call(scenario, op, i, n_types))
    scenario.run()

    stats = scenario.stats["sweep"]
    return Fig18Point(
        multiple=multiple,
        capacity=capacity,
        offered_rate=offered,
        arrivals=int(times.size),
        measured_arrivals=int(np.count_nonzero(times >= warmup)),
        completed=stats.completed,
        shed=stats.shed_total,
        timeouts=stats.timeout_total,
        failed=stats.failed_total,
        goodput=stats.completed / (horizon - warmup),
        per_op=stats.to_dict()["ops"],
        server_shed_by_op=dict(sorted(scenario.vo.rdm(scenario.server).shed_by_op.items())),
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
    scenario = _scenario(
        seed, n_sites, admission_limit, n_types,
        (("before", 0.0, spike_start), ("during", spike_start, spike_end),
         ("after", spike_end, horizon)), warmup, request_timeout)

    hot_base = 0.02 * capacity
    hot_spike = 100.0 * hot_base  # 2x capacity while the spike is up

    def hot_call(op: str, index: int) -> Tuple[str, str, str, dict]:
        return (scenario.clients[index % len(scenario.clients)], scenario.server,
                "get_deployments", {"type": "Fig18Type00", "auto_deploy": False})

    scenario.inject(PoissonProcess(0.7 * capacity, name="fig18-flash-bg"),
                    TrafficMix(MIX_WEIGHTS, name="fig18-flash-mix"),
                    lambda op, i: _mix_call(scenario, op, i, n_types))
    scenario.inject(NHPoissonProcess(StepRate(hot_base, hot_spike, spike_start, spike_end),
                                     name="fig18-flash-hot"), "hot", hot_call)
    scenario.run()

    phases = scenario.phase_rows("completed", "p99_ms")
    for name, row in phases.items():
        bg_resolve = scenario.stats[name].ops.get(f"{name}|resolve")
        row["bg_p99_ms"] = bg_resolve.latency.p99 * 1000.0 if bg_resolve else 0.0
    return Fig18Flash(
        capacity=capacity,
        hot_spike_rate=hot_spike,
        phases=phases,
        result_digest=hashlib.sha256(scenario.fingerprint().encode()).hexdigest(),
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
