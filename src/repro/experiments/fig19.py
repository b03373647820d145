"""Fig. 19 (extension): desired-state orchestration under a flash crowd.

Fig. 18 showed the registry stack *degrading gracefully* when offered
load crosses capacity — admission control sheds the excess and goodput
plateaus at whatever one replica can do.  This experiment closes the
loop: the same 100x flash crowd hits one activity type, but a
:class:`~repro.orchestrate.reconciler.Reconciler` now drives the VO
toward a declared :class:`~repro.orchestrate.spec.DeploymentSpec`, so
the hot type *scales out* (rollout installs on the least-loaded
eligible sites) until goodput recovers, and *drains back* to
``min_replicas`` after the crowd subsides — scale-in is actuated by
shortening WSRF resource lifetimes and letting each site's
LifetimeManager garbage-collect the drained replica.

Two series run the identical seeded workload:

* **orchestrated** — ``build_vo(orchestration=...)`` with one spec for
  the hot type (min 1 / max N replicas, target utilization 0.6, the
  community site excluded via ``avoid_sites``);
* **static** — the exact same VO with orchestration off: one replica
  forever, the fig18 baseline behaviour.

Phases: *before* (base load) → *surge* (spike up, reconciler adapting)
→ *recovered* (spike still up, fleet scaled) → *after* (spike down,
drain back).  Acceptance, asserted by the experiment's ``check``:

1. the orchestrated run scales out (observed replicas > 1) and drains
   back to ``min_replicas`` by the end of the run;
2. recovered-phase goodput meets or beats the pre-spike plateau;
3. the orchestrated recovered-phase hot-type goodput beats the static
   series by a clear margin (the scale-out actually bought capacity);
4. convergence times (divergence observed → plan converged) are
   recorded and the double-run digest is bit-identical.

Determinism: arrivals, placement, installs and drains are all
in-simulation and seeded; every phase's streaming stats, the replica
trajectory and the reconciler's own round digest fold into one result
digest, so a repeat run must agree bit-for-bit and ``--jobs`` fan-out
merges to the same fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_table
from repro.experiments.workload import (
    PhasedLoad,
    publish_installable_type,
    serve_types,
)
from repro.glare.model import DeploymentStatus
from repro.load import NHPoissonProcess, PoissonProcess, StepRate
from repro.orchestrate import DeploymentSpec, OrchestrationConfig
from repro.runner import WorkUnit
from repro.vo import SITE_PREFIX, VOConfig, build_vo

#: the managed (spiking) activity type
HOT_TYPE = "Fig19Hot"

#: CPU seconds one hot instantiation burns on its replica site
HOT_DEMAND = 0.2

#: CPU seconds one background instantiation burns on the primary site
BG_DEMAND = 0.1

#: steady background arrival rate against the primary site (req/s);
#: with 4 cores this keeps the primary ~0.3 utilized — inside the
#: planner's steady band, so no spurious scaling before the spike
BG_RATE = 12.0

#: hot-type base arrival rate; the flash crowd is 100x this
HOT_BASE_RATE = 4.0
SPIKE_FACTOR = 100.0

#: arrival quantisation grid (cohort width)
TICK = 0.005

#: goodput window for the streaming per-window counters
WINDOW = 2.0

#: per-request deadline; overload past it surfaces as RpcTimeout
REQUEST_TIMEOUT = 8.0

#: post-horizon drain so in-flight requests and the final scale-in
#: rounds complete
DRAIN = REQUEST_TIMEOUT + 6.0

#: replica-trajectory sampling period
SAMPLE_EVERY = 0.5


# ---------------------------------------------------------------------------
# VO construction + content
# ---------------------------------------------------------------------------


def _orchestration_config(community: str, max_replicas: int) -> OrchestrationConfig:
    """The spec the reconciler drives toward: hot type, bounded fleet."""
    return OrchestrationConfig(
        specs=(DeploymentSpec(
            HOT_TYPE,
            min_replicas=1,
            max_replicas=max_replicas,
            target_utilization=0.6,
            avoid_sites=(community,),
        ),),
        interval=2.0,
        drain_grace=3.0,
        scale_in_rounds=2,
        scale_out_step=1,
        max_actions_per_round=4,
        utilization_smoothing=0.5,
    )


def _build_fig19_vo(seed: int, n_sites: int, orchestrated: bool,
                    admission_limit: Optional[int], max_replicas: int):
    """Identical VO either way; only the orchestration config differs.

    Lifecycle sweeps run every second so a drained replica is
    garbage-collected within the reconciler's grace window.
    """
    community = f"{SITE_PREFIX}00"
    return build_vo(VOConfig(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=True,
        monitors=False,
        lifecycle=True,
        lifecycle_sweep_interval=1.0,
        admission_limit=admission_limit,
        gram_overhead=0.05,
        orchestration=(
            _orchestration_config(community, max_replicas)
            if orchestrated else None
        ),
    ))


def _setup_content(vo, server: str, n_bg_types: int) -> List[str]:
    """Background types on ``server`` + the installable hot type.

    The hot type's build is kept light so one scale-out lands within a
    reconcile interval or two.  It starts with exactly one replica,
    installed on ``server`` through the real deploy pipeline (so
    scale-out installs behave identically).  Returns the background
    deployment keys.
    """
    bg_keys = serve_types(vo, server, "Fig19Bg", n_bg_types, "fig19")
    type_xml = publish_installable_type(
        vo, HOT_TYPE, domain="fig19", archive_size=1_500_000,
        configure_demand=0.25, install_demand=0.15, binary_size=400_000,
    )
    result = vo.run_process(vo.client_call(
        server, "deploy", payload={"type_xml": type_xml},
    ))
    if not result.get("success"):
        raise RuntimeError(f"fig19 hot-type seed install failed: {result.get('error')}")
    return bg_keys


def _start_replica_sampler(vo, t0: float,
                           series: List[Tuple[float, int]],
                           targets: List[Tuple[str, str]]) -> None:
    """Track the hot type's live replicas straight from the ADRs.

    ``targets`` (site, key) is what the workload routes over —
    clients follow the fleet the way a discovery-driven scheduler
    would — and ``series`` records (t, replica count) on change.
    Works identically with and without a reconciler, so the static
    series uses the same instrumentation.
    """

    def loop() -> Generator:
        while True:
            found: List[Tuple[str, str]] = []
            for name in sorted(vo.stacks):
                adr = vo.stacks[name].adr
                for d in adr.local_deployments_for(HOT_TYPE):
                    if d.status == DeploymentStatus.ACTIVE:
                        found.append((name, d.key))
            targets[:] = found
            if not series or series[-1][1] != len(found):
                series.append((round(vo.sim.now - t0, 3), len(found)))
            yield vo.sim.timeout(SAMPLE_EVERY)

    vo.sim.process(loop(), name="fig19-replica-sampler")


# ---------------------------------------------------------------------------
# The flash-crowd scenario
# ---------------------------------------------------------------------------


@dataclass
class Fig19Flash:
    """One series (orchestrated or static) of the fig19 flash crowd."""

    orchestrated: bool
    spike_rate: float
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: (t relative to workload start, observed replica count) on change
    replica_series: List[Tuple[float, int]] = field(default_factory=list)
    max_replicas_seen: int = 0
    final_replicas: int = 0
    reconcile_rounds: int = 0
    installs: int = 0
    drains: int = 0
    convergence_times: List[float] = field(default_factory=list)
    result_digest: str = ""


def run_fig19_flash(
    orchestrated: bool,
    seed: int = 43,
    n_sites: int = 8,
    admission_limit: Optional[int] = 24,
    n_bg_types: int = 4,
    max_replicas: int = 4,
    horizon: float = 80.0,
    warmup: float = 6.0,
    spike_start: float = 20.0,
    spike_end: float = 56.0,
    adapt: float = 12.0,
    request_timeout: float = REQUEST_TIMEOUT,
) -> Fig19Flash:
    """The 100x flash crowd, with or without the reconciler.

    ``adapt`` splits the spike window: *surge* (the reconciler is
    still scaling) vs *recovered* (the fleet should be carrying the
    crowd).  Hot requests round-robin over whatever replicas the
    sampler currently observes, so routing follows scale-out and
    drain automatically.
    """
    vo = _build_fig19_vo(seed, n_sites, orchestrated, admission_limit,
                         max_replicas)
    community = vo.community_site
    server = vo.site_names[1]
    bg_keys = _setup_content(vo, server, n_bg_types)

    load = PhasedLoad(
        vo, (("before", 0.0, spike_start),
             ("surge", spike_start, spike_start + adapt),
             ("recovered", spike_start + adapt, spike_end),
             ("after", spike_end, horizon)),
        warmup=warmup, request_timeout=request_timeout, window=WINDOW)

    replica_series: List[Tuple[float, int]] = []
    targets: List[Tuple[str, str]] = []
    _start_replica_sampler(vo, load.t0, replica_series, targets)

    bg_times = PoissonProcess(BG_RATE, name="fig19-bg").sample(horizon, seed)
    spike_rate = SPIKE_FACTOR * HOT_BASE_RATE
    hot_rate = StepRate(HOT_BASE_RATE, spike_rate, spike_start, spike_end)
    hot_times = NHPoissonProcess(hot_rate, name="fig19-hot").sample(horizon, seed)

    def make_bg_call(op: str, index: int) -> Generator:
        payload = {"key": bg_keys[index % len(bg_keys)], "demand": BG_DEMAND}
        value = yield from load.driver(op).call(
            community, server, "instantiate", payload)
        return value

    def make_hot_call(op: str, index: int) -> Generator:
        if targets:
            site, key = targets[index % len(targets)]
        else:  # pre-sampler edge: the seed replica on the primary
            site, key = server, f"{server}/{HOT_TYPE.lower()}-bin"
        payload = {"key": key, "demand": HOT_DEMAND}
        value = yield from load.driver(op).call(
            community, site, "instantiate", payload)
        return value

    load.inject(bg_times, lambda i: "bg", make_bg_call, TICK)
    load.inject(hot_times, lambda i: "hot", make_hot_call, TICK)
    vo.sim.run(until=load.t0 + horizon + DRAIN)

    out_phases: Dict[str, Dict[str, float]] = {}
    for name, s, span in load.measured():
        hot = s.ops.get(f"{name}|hot")
        out_phases[name] = {
            "arrivals": s.offered,
            "completed": s.completed,
            "shed": s.shed_total,
            "timeouts": s.timeout_total,
            "goodput": s.completed / span if span > 0 else 0.0,
            "hot_completed": hot.completed if hot else 0,
            "hot_goodput": (hot.completed / span) if hot and span > 0 else 0.0,
            "hot_shed": hot.shed if hot else 0,
            "hot_p99_ms": (hot.latency.p99 * 1000.0) if hot else 0.0,
        }

    reconciler = vo.reconciler
    digest_parts = [load.fingerprint()]
    digest_parts.append(
        "replicas:" + ",".join(f"{t:.3f}={n}" for t, n in replica_series)
    )
    if reconciler is not None:
        digest_parts.append(f"reconciler:{reconciler.fingerprint()}")
    digest = hashlib.sha256("|".join(digest_parts).encode()).hexdigest()

    counts = [n for _, n in replica_series] or [0]
    return Fig19Flash(
        orchestrated=orchestrated,
        spike_rate=spike_rate,
        phases=out_phases,
        replica_series=replica_series,
        max_replicas_seen=max(counts),
        final_replicas=counts[-1],
        reconcile_rounds=len(reconciler.rounds) if reconciler else 0,
        installs=reconciler.actuator.installs if reconciler else 0,
        drains=reconciler.actuator.drains if reconciler else 0,
        convergence_times=list(reconciler.convergence_times) if reconciler else [],
        result_digest=digest,
    )


# ---------------------------------------------------------------------------
# Formatting + declaration
# ---------------------------------------------------------------------------


def format_fig19(orch: Fig19Flash, static: Fig19Flash) -> str:
    """Render the orchestrated-vs-static phase comparison."""
    headers = ["series", "phase", "arrivals", "goodput/s", "hot/s",
               "hot shed", "hot p99 ms"]
    rows = []
    for flash in (orch, static):
        series = "orchestrated" if flash.orchestrated else "static"
        for name in ("before", "surge", "recovered", "after"):
            ph = flash.phases.get(name, {})
            rows.append([
                series,
                name,
                int(ph.get("arrivals", 0)),
                f"{ph.get('goodput', 0.0):.0f}",
                f"{ph.get('hot_goodput', 0.0):.0f}",
                int(ph.get("hot_shed", 0)),
                f"{ph.get('hot_p99_ms', 0.0):.1f}",
            ])
    out = [format_table(
        headers, rows,
        title=(f"Fig. 19 — desired-state orchestration under a "
               f"{SPIKE_FACTOR:.0f}x flash crowd ({orch.spike_rate:.0f}/s)"),
    )]
    trajectory = " → ".join(f"{n}@{t:.0f}s" for t, n in orch.replica_series)
    out.append(f"replica trajectory (orchestrated): {trajectory}")
    if orch.convergence_times:
        times = ", ".join(f"{t:.1f}s" for t in sorted(orch.convergence_times))
        out.append(
            f"convergence times (diverged → plan converged): {times} "
            f"over {orch.reconcile_rounds} rounds "
            f"({orch.installs} installs, {orch.drains} drains)"
        )
    out.append(
        "scale-out = planner-driven rollout installs; scale-in = WSRF "
        "lifetime shortening + lifetime-manager garbage collection; the "
        "static series is the same seeded workload with orchestration off."
    )
    return "\n".join(out)


def _units(kwargs: Dict) -> List[WorkUnit]:
    """The orchestrated series, its static twin, an orchestrated repeat."""
    flash = "repro.experiments.fig19:run_fig19_flash"
    return [
        WorkUnit("fig19:orchestrated", flash, dict(kwargs, orchestrated=True)),
        WorkUnit("fig19:static", flash, dict(kwargs, orchestrated=False)),
        WorkUnit("fig19:orchestrated-repeat", flash,
                 dict(kwargs, orchestrated=True)),
    ]


def _check(results: Results) -> None:
    orchestrated, static = results["fig19:orchestrated"], results["fig19:static"]

    # 1. the reconciler scaled out and drained back to min replicas
    if orchestrated.max_replicas_seen < 2:
        raise AssertionError(
            "fig19: orchestration never scaled out "
            f"(max observed replicas {orchestrated.max_replicas_seen})"
        )
    if orchestrated.final_replicas != 1:
        raise AssertionError(
            "fig19: fleet did not drain back to min_replicas "
            f"({orchestrated.final_replicas} replicas at end of run)"
        )
    if static.max_replicas_seen != 1:
        raise AssertionError(
            "fig19: static series unexpectedly changed replica count "
            f"({static.max_replicas_seen})"
        )

    # 2. goodput recovered to at least the pre-spike plateau
    before = orchestrated.phases["before"]["goodput"]
    recovered = orchestrated.phases["recovered"]["goodput"]
    if before <= 0:
        raise AssertionError("fig19: zero goodput before the spike")
    if recovered < before:
        raise AssertionError(
            f"fig19: goodput did not recover under orchestration "
            f"({recovered:.1f}/s recovered vs {before:.1f}/s before)"
        )

    # 3. scale-out actually bought hot-type capacity vs the static VO
    orch_hot = orchestrated.phases["recovered"]["hot_goodput"]
    static_hot = static.phases["recovered"]["hot_goodput"]
    if orch_hot < 1.2 * max(static_hot, 1e-9):
        raise AssertionError(
            f"fig19: orchestrated hot goodput {orch_hot:.1f}/s is not "
            f"clearly above the static series' {static_hot:.1f}/s"
        )

    # 4. the loop observed divergence and converged again
    if not orchestrated.convergence_times:
        raise AssertionError("fig19: no convergence events recorded")


EXPERIMENT = Experiment(
    name="fig19",
    summary="desired-state orchestration under a flash crowd, "
            "orchestrated vs static",
    quick=dict(n_sites=6, max_replicas=3, horizon=40.0, warmup=4.0,
               spike_start=10.0, spike_end=26.0, adapt=8.0),
    full={},
    units=_units,
    repeats={"fig19:orchestrated-repeat": "fig19:orchestrated"},
    check=_check,
    render=lambda results: format_fig19(results["fig19:orchestrated"],
                                        results["fig19:static"]),
)
