"""Host-cost harness: one gate table, declared once, and nothing reads a clock.

The paper's whole evaluation (Figs. 10-13, Table 1) rides on the DES
inner loop, so what running the simulator costs the host bounds how
large a VO we can simulate.  This module counts that cost at fixed
seeds: exact, machine-independent Python-call, ring and footprint
counters, the same on every host.  Host wall time has its own harness,
``benchmarks/e2e``.  What a run *simulates* is the
``repro.experiments.registry.EXPERIMENTS`` table's to pin (each entry's
merged digest) and to judge (each entry's ``check``); the only
simulated values pinned here are the ones no experiment runs: the
seeded kernel trace, the end-to-end outputs perf work must not move,
the arrival models and the pure planner.

Everything is driven by :data:`SUITES`: one :class:`Suite` declaration
per committed ``BENCH_<name>.json``, naming

* ``run`` — a single pass ``run()`` that returns the suite's
  :class:`BenchResult` list *and* its pinned section, if any
  (``fingerprint``, or ``determinism`` for the kernel suite);
* ``gates`` — declarative checks of three kinds, each a callable
  ``(suite, baseline) -> [failure, ...]``: :class:`Exact` (a pinned
  section, key by key, or one pinned value), :class:`Budget` (a counter
  at most its committed value x :data:`BUDGET`) and :class:`Holds` (a
  recorded verdict);
* ``highlights`` — the dotted payload paths worth printing.

Each benchmark makes one warm-up run and then one counted run of the
same fixed shape (:func:`_warm_count`), so ``--check-all`` gives the
same verdict on any host and writes the same file at any ``--jobs``.
:func:`run_suite`, :func:`compare`, :func:`summarize`, :func:`describe`
and :func:`dump_suite` are the only consumers, so another suite is one
more entry in the table.  The suites: ``kernel`` (event churn, echo
RPCs, two scaled Fig. 10 points, the seeded kernel trace),
``resolution`` and ``provisioning`` (the optimized 16-site Fig. 14 /
Fig. 15 points), ``obs`` (instrumentation tiers), ``storage`` (ring
work), ``workload`` (Fig. 18 arrival engine, streaming-stats
footprint, arrival models) and ``orchestration`` (Fig. 19 control
loop, planner policy).

``benchmarks/bench_wallclock.py`` is the CLI over this table.
Everything here uses only public simulator APIs so the harness itself
is independent of kernel internals.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re

import numpy as np
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.net.network import Network
from repro.net.service import EchoService
from repro.net.topology import Topology
from repro.simkernel import Interrupt, Simulator
from repro.simkernel.primitives import Resource, Store

#: strips CPython object addresses out of event reprs so traces can be
#: compared across processes (and across the timeout free list)
_ADDR_RE = re.compile(r"0x[0-9a-f]+")


@dataclass
class BenchResult:
    """One benchmark: the exact counters its gates read, under ``details``."""

    name: str
    details: Dict[str, Any] = field(default_factory=dict)


def count_pycalls(run: Callable[[], Any]) -> Tuple[int, Any]:
    """Python ``call`` events (function entries + generator resumes)
    inside ``run()``, and what it returned.

    A collection beforehand finalises earlier worlds' suspended calls
    (closing one runs its transport's observer exits), which would
    otherwise land inside the count.
    """
    import cProfile
    import gc

    gc.collect()
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        value = run()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats()), value


def _warm_count(run: Callable[[], Any]) -> Tuple[int, Any]:
    """:func:`count_pycalls` of ``run`` after one unprofiled ``run()``
    has absorbed first-sight paths (route searches, compilations, lazy
    imports), so the count does not depend on what ran before in the
    process."""
    run()
    return count_pycalls(run)


# -- kernel microbenchmark -------------------------------------------------


def _ticker_world(n_procs: int, events_per_proc: int, seed: int) -> Simulator:
    """``n_procs`` processes yielding timeouts, ready to run.

    The delays differ per process so the agenda stays genuinely
    interleaved (no degenerate single-timestamp batching).
    """
    sim = Simulator(seed=seed)

    def ticker(index: int) -> Generator:
        delay = 0.001 + (index % 7) * 0.0005
        timeout = sim.timeout
        for _ in range(events_per_proc):
            yield timeout(delay)

    for index in range(n_procs):
        sim.process(ticker(index), name=f"ticker-{index}")
    return sim


def bench_kernel_events(n_procs: int = 32, events_per_proc: int = 1500,
                        seed: int = 11) -> BenchResult:
    """Pure event churn: Python calls per agenda event."""
    calls, _ = _warm_count(
        lambda: _ticker_world(n_procs, events_per_proc, seed).run())
    # per process: one init event, one timeout per tick, one
    # termination event for the Process itself
    events = n_procs * (events_per_proc + 2)
    return BenchResult("kernel", {
        "kernel_pycalls_per_event": round(calls / events, 2)})


# -- RPC microbenchmark ----------------------------------------------------


def _echo_world(seed: int, clients: int, until: float, obs: Any = None):
    """Closed-loop echo clients, each ending at ``until``, on a 4-site star.

    Returns ``(sim, net, completed)`` with the SLO engine (if ``obs``
    carries one) and the client processes already started;
    ``completed[0]`` counts finished round-trips.  One topology for the
    RPC benchmark and every observability tier, so the tiers' call-count
    deltas are pure instrumentation cost.
    """
    sim = Simulator(seed=seed)
    client_sites = [f"c{i}" for i in range(4)]
    topo = Topology.star("server", client_sites, latency=0.004, bandwidth=12.5e6)
    net = Network(sim, topo, obs=obs)
    net.add_node("server", cores=2)
    for site in client_sites:
        net.add_node(site, cores=2)
    EchoService(net, "server", demand=0.0005)
    if obs is not None and obs.slo is not None:
        obs.slo.evaluator.start()

    completed = [0]

    def client(index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        payload = f"ping-{index:03d}"
        while sim.now < until:
            yield from net.call(site, "server", "echo", "echo", payload=payload)
            completed[0] += 1

    for index in range(clients):
        sim.process(client(index), name=f"echo-client-{index}")
    return sim, net, completed


def _tier_observability(tier: str):
    """The observability bundle of one echo tier.

    ``tier`` is ``"off"`` (null observability — the production default),
    ``"obs"`` (tracer + metrics) or ``"slo"`` (tracer + metrics + SLO
    engine fed by the transport stage).
    """
    from repro.obs import Observability
    from repro.obs.slo import SLOSpec

    if tier == "obs":
        return Observability(enabled=True, sample_interval=5.0)
    if tier == "slo":
        # an availability objective over the echo endpoint (default alert
        # rules), so every RPC records an attempt SLI in the engine
        return Observability(enabled=True, sample_interval=5.0, slos=(
            SLOSpec(name="echo-availability", endpoint="echo.*", target=0.999),
        ))
    return None


def _echo_pycalls(tier: str, clients: int = 4, horizon: float = 10.0,
                  seed: int = 11) -> Tuple[int, int]:
    """Python calls and completed echo RPCs over ``horizon`` simulated
    seconds at one observability tier.

    One unprofiled simulated second first absorbs route searches and
    other first-use paths (and see :func:`count_pycalls`).
    """
    sim, _net, completed = _echo_world(seed, clients, 1.0 + horizon,
                                       obs=_tier_observability(tier))
    sim.run(until=1.0)
    warm = completed[0]
    calls, _ = count_pycalls(lambda: sim.run(until=1.0 + horizon))
    return calls, completed[0] - warm


def bench_rpc_roundtrips(clients: int = 8, horizon: float = 4.0) -> BenchResult:
    """Closed-loop echo RPCs: the full marshalling + transport path, at
    one contended point (8 clients on the 2-core server)."""
    calls, rpcs = _echo_pycalls("off", clients=clients, horizon=horizon)
    return BenchResult("rpc", {
        "rpc_pycalls_per_roundtrip": round(calls / rpcs, 2)})


# -- scaled Fig. 10 scenario ----------------------------------------------


def bench_fig10_point(kind: str, n_types: int = 100, seed: int = 3) -> BenchResult:
    """Scaled-down Fig. 10 point at 16 clients — ``"registry"`` (named
    hash-table lookups) or ``"index"`` (XPath over the aggregation):
    Python calls per completed request.

    The counted point includes its build — registering the documents is
    part of what a registry or an index costs.  An index query surface
    that walks the aggregate per query costs ~420 calls per request; an
    indexed one ~147.
    """
    from repro.experiments.fig10 import run_fig10_point

    calls, point = _warm_count(
        lambda: run_fig10_point(kind, False, 16, n_types=n_types, seed=seed))
    # simulated requests completed over the 30 s horizon
    requests = round(point.throughput * 25.0)
    return BenchResult(f"fig10_{kind}", {
        f"fig10_{kind}_pycalls_per_request": round(calls / requests, 2)})


# -- resolution and provisioning paths (Figs. 14 and 15 machinery) -----------


def bench_resolution(n_sites: int = 16) -> BenchResult:
    """Host cost of fig14's optimized quick-grid point at its default
    seed: Python calls per resolution.  What the point simulates is
    fig14's to pin and judge."""
    from repro.experiments.fig14 import run_fig14_point

    calls, point = _warm_count(
        lambda: run_fig14_point(n_sites, optimized=True))
    return BenchResult("resolution", {
        "optimized_pycalls_per_resolution": round(calls / point.resolutions, 2)})


def bench_provisioning(n_sites: int = 16) -> BenchResult:
    """Host cost of fig15's parallel/replica quick-grid point at its
    default seed: Python calls per installation.  What the point
    simulates is fig15's to pin and judge."""
    from repro.experiments.fig15 import run_fig15_point

    calls, point = _warm_count(
        lambda: run_fig15_point(n_sites, optimized=True))
    return BenchResult("provisioning", {
        "optimized_pycalls_per_install": round(calls / point.installed, 2)})


# -- observability-cost benchmark (obs + SLO plane) -------------------------


def bench_obs(clients: int = 4, horizon: float = 10.0, seed: int = 11) -> BenchResult:
    """Instrumentation cost: what tracing + metrics, and an SLO on top,
    add to the Python calls of a null-tier echo RPC, plus what a
    finished span retains.

    One fixed workload (4 clients x 10 simulated seconds, 4,630 RPCs per
    tier).  The plane charges no simulated time, so every tier must
    complete the same RPCs.
    """
    counted = {tier: _echo_pycalls(tier, clients, horizon, seed)
               for tier in ("off", "obs", "slo")}
    per_rpc = {tier: calls / rpcs for tier, (calls, rpcs) in counted.items()}
    return BenchResult("obs", {
        "obs_extra_pycalls_per_rpc": round(per_rpc["obs"] - per_rpc["off"], 2),
        "slo_extra_pycalls_per_rpc": round(per_rpc["slo"] - per_rpc["off"], 2),
        "sim_throughput_equal": len({rpcs for _, rpcs in counted.values()}) == 1,
        "retained_bytes_per_span": retained_bytes_per_span(),
        "tracked_objects_per_span": tracked_objects_per_span(),
    })


def one_shot_echo_calls(n_calls: int, seed: int = 11):
    """``n_calls`` traced echo RPCs, each made by a process of its own
    that ends with its call, run to completion; returns ``(sim, tracer)``.

    A closed-loop echo client makes call after call until its horizon,
    so only one-shot callers can show what a finished span keeps alive
    once its process is gone.
    """
    from repro.obs import Observability

    obs = Observability(enabled=True)
    sim, net, _completed = _echo_world(seed, 0, 0.0, obs=obs)

    def one_shot(index: int) -> Generator:
        yield from net.call(f"c{index % 4}", "server", "echo", "echo",
                            payload=f"ping-{index:03d}")

    for index in range(n_calls):
        sim.process(one_shot(index), name=f"one-shot-{index}")
    sim.run()
    return sim, obs.tracer


def retained_bytes_per_span(n_calls: int = 200) -> float:
    """Bytes each finished span keeps alive, as a count that repeats
    exactly: ``tracemalloc``'s
    traced total with :func:`one_shot_echo_calls`' spans retained, minus
    the total once ``tracer.clear()`` and a collection have freed them,
    over the span count (2 per call: ``rpc:`` and ``serve:``).

    A full collection empties CPython's free lists, so collecting before
    tracing starts makes every object the spans hold a traced block, and
    collecting after ``clear()`` returns every one of them: the count
    does not depend on what ran before in the process.
    """
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        # the simulator stays referenced: clear() frees only what spans held
        sim, tracer = one_shot_echo_calls(n_calls)
        gc.collect()
        spans = len(tracer)
        retained = tracemalloc.get_traced_memory()[0]
        tracer.clear()
        gc.collect()
        freed = retained - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return round(freed / spans, 1)


def _settled_tracked() -> int:
    """``len(gc.get_objects())`` once a collection untracks nothing more
    (a tuple is untracked only once its items are: one pass per level)."""
    before, count = None, -1
    while count != before:
        gc.collect()
        before, count = count, len(gc.get_objects())
    return count


def tracked_objects_per_span(n_calls: int = 200) -> float:
    """GC-tracked objects each finished span keeps alive: the drop in
    settled tracked objects when :func:`one_shot_echo_calls`' spans are
    cleared, over the span count.  Each such object is one more for
    every full collection to walk; a row store keeps none.
    """
    # the simulator stays referenced: clear() frees only what spans held
    sim, tracer = one_shot_echo_calls(n_calls)
    spans = len(tracer)
    tracked = _settled_tracked()
    tracer.clear()
    return round((tracked - _settled_tracked()) / spans, 2)


# -- sharded-storage benchmark (Fig. 17 machinery) --------------------------


def bench_storage() -> BenchResult:
    """Ring work of one routed sharded VO build (fig17 holds lookups
    flat in exact calls per lookup)."""
    return BenchResult("storage", ring_work_per_routed_vo())


def ring_work_per_routed_vo(n_sites: int = 64) -> Dict[str, int]:
    """Rings built and ring points hashed, from a cold table, by one routed
    sharded ``n_sites`` VO build + overlay: the memberships it tells
    apart (shard ring, super-peer ring), however many sites hold them."""
    from repro.glare import resolution, storage
    from repro.vo import build_vo

    storage._RINGS.clear()
    build_vo(n_sites=n_sites, seed=77, group_size=4,
             resolution=resolution.ResolutionConfig.all_on(),
             storage=storage.StorageConfig.sharded(4, routing=True),
             ).form_overlay()
    points = [len(ring._points) for ring in storage._RINGS.values()]
    return {"ring_builds_per_routed_vo": len(points),
            "ring_point_hashes_per_routed_vo": sum(points)}


# -- open-loop workload-plane benchmark (Fig. 18 machinery) -----------------


def _inject_diurnal(target_arrivals: int, seed: int):
    """Generate a two-region diurnal arrival trace sized to
    ``target_arrivals`` and inject it into a bare simulator as
    same-timestamp cohorts, running the agenda to exhaustion; returns
    the injector."""
    from repro.load.arrivals import DiurnalRate, NHPoissonProcess
    from repro.load.inject import CohortInjector

    horizon = 50.0
    # two staggered regions, weights summing to 1 => mean rate == base
    rate = DiurnalRate(target_arrivals / horizon, amplitude=0.8,
                       period=horizon, regions=((0.0, 0.6), (0.3 * horizon, 0.4)))
    times = NHPoissonProcess(rate, name="bench-diurnal").sample(horizon, seed)
    sim = Simulator(seed=seed)
    injector = CohortInjector(sim, times, lambda t, i: None, tick=0.005)
    injector.start()
    sim.run()
    if injector.fired != times.size:  # pragma: no cover - harness invariant
        raise RuntimeError(
            f"cohort injection dropped arrivals: fired {injector.fired} "
            f"of {times.size}"
        )
    return injector


def bench_workload(target_arrivals: int = 200_000, seed: int = 17) -> BenchResult:
    """Arrival-engine cost: Python calls per generated + cohort-scheduled
    diurnal arrival — an arrival only counts once its cohort event has
    actually dispatched, so this is the cost of putting one open-loop
    user on the wire."""
    calls, injector = _warm_count(
        lambda: _inject_diurnal(target_arrivals, seed))
    return BenchResult("workload", {
        "pycalls_per_arrival": round(calls / injector.fired, 4)})


def bench_workload_memory(target_arrivals: int = 12_000) -> BenchResult:
    """The full open-loop fig18 path at one fixed size and a rate it
    serves (1,500 arrivals/s), for its streaming-stats footprint.

    Streaming stats bound the per-run state to the fixed histogram grid
    plus one window row per elapsed window, so the footprint at a fixed
    size is an exact budget: a per-request list anywhere in the stats
    shows up in it.
    """
    from repro.experiments.fig18 import run_fig18_point

    rate = 1500.0
    horizon = target_arrivals / rate
    point = run_fig18_point(1.0, rate, horizon=horizon,
                            warmup=min(5.0, 0.1 * horizon))
    return BenchResult("workload_memory", {
        "stats_footprint_bytes": point.stats_footprint_bytes})


def workload_fingerprint(seed: int = 41) -> Dict[str, Any]:
    """Deterministic digest of the arrival models, which no experiment
    runs on their own.

    Arrival-trace digests (sha256 over the raw float64 timestamps) pin
    every generator model bit-for-bit; the cohort count pins the
    quantisation grid.  Both are pure draws from named streams, so the
    committed ``BENCH_workload.json`` pins them across refactors (the
    open-loop path itself is fig18's, pinned by its merged digest).
    """
    from repro.load.arrivals import (
        DiurnalRate,
        MMPPProcess,
        NHPoissonProcess,
        ParetoSessions,
        PoissonProcess,
        StepRate,
    )
    from repro.load.inject import quantize_ticks

    horizon = 40.0
    traces = {
        "poisson": PoissonProcess(500.0).sample(horizon, seed),
        "diurnal": NHPoissonProcess(
            DiurnalRate(400.0, period=horizon, regions=((0.0, 0.6), (12.0, 0.4)))
        ).sample(horizon, seed),
        "flash": NHPoissonProcess(
            StepRate(200.0, 2_000.0, 15.0, 20.0), name="nhpp-step"
        ).sample(horizon, seed),
        "mmpp": MMPPProcess().sample(horizon, seed),
        "sessions": ParetoSessions(PoissonProcess(30.0, name="session-starts"))
        .sample(horizon, seed),
    }
    models = {
        name: {
            "arrivals": int(times.size),
            "sha256": hashlib.sha256(times.tobytes()).hexdigest(),
        }
        for name, times in traces.items()
    }
    ticks = quantize_ticks(traces["poisson"], 0.005)
    return {
        "seed": seed,
        "models": models,
        "poisson_cohorts": int(np.unique(ticks).size),
    }


# -- desired-state orchestration benchmark (Fig. 19 machinery) --------------

def _planner_fingerprint(seed: int = 43) -> Dict[str, Any]:
    """The orchestration suite's pinned section: a digest of the pure
    planner over a grid of synthetic worlds, which no experiment runs
    alone.

    No simulator at all: every (utilization level, shed level, site
    missing from the observation, placement count) cell is planned once
    and its TypePlan folded into one sha256.  A missing site is how the
    reconciler sees a crashed one.  Catches policy drift — threshold
    comparisons, tie-breaking, clamping — independently of the
    simulation around it.
    """
    from repro.orchestrate.planner import Observed, Planner, SiteObservation
    from repro.orchestrate.spec import DeploymentSpec

    planner = Planner()
    spec = DeploymentSpec(type_name="T", min_replicas=1, max_replicas=3,
                          target_utilization=0.6)
    digest = hashlib.sha256(f"planner|{seed}".encode())
    site_names = ("a", "b", "c", "d")
    for busy in (0.05, 0.3, 0.65, 0.95):
        for shed in (0, 5):
            for missing in ("", "a", "d"):
                for n_placed in (0, 1, 2, 4):
                    sites = tuple(
                        SiteObservation(
                            site=name,
                            utilization=busy * (1.0 + 0.1 * index),
                            load=busy * 4.0,
                            run_queue=index,
                            shed=shed if index == 0 else 0,
                        )
                        for index, name in enumerate(site_names)
                        if name != missing
                    )
                    observed = Observed(
                        sites=sites,
                        placements={"T": site_names[:n_placed]},
                    )
                    tp = planner.plan([spec], observed).types[0]
                    digest.update(
                        f"{busy}|{shed}|{missing}|{n_placed}=>"
                        f"{tp.desired}|{tp.placements}|{tp.add}|{tp.remove}"
                        f"|{tp.reason};".encode()
                    )
    return {"seed": seed, "planner_decisions": digest.hexdigest()}


def bench_orchestration(seed: int = 43) -> BenchResult:
    """Host cost of the desired-state loop: Python calls per reconcile
    round of fig19's quick orchestrated flash crowd — thousands of
    open-loop arrivals with the reconciler observing, planning and
    actuating every interval.  What that run simulates is fig19's to pin
    and judge."""
    from repro.experiments.fig19 import EXPERIMENT, run_fig19_flash

    calls, flash = _warm_count(partial(
        run_fig19_flash, orchestrated=True, seed=seed, **EXPERIMENT.quick))
    return BenchResult("orchestration", {
        "pycalls_per_reconcile_round": round(calls / flash.reconcile_rounds, 2)})


# -- determinism fingerprints ----------------------------------------------


def _mixed_kernel_scenario(seed: int) -> Simulator:
    """A small scenario exercising every kernel feature with trace on.

    Timeouts, stores, resources, conditions, interrupts and process
    failure recovery all appear, so the trace fingerprint is sensitive
    to any change in event ordering anywhere in the kernel.
    """
    sim = Simulator(seed=seed, trace=True)
    store: Store = Store(sim, capacity=4)
    pool = Resource(sim, capacity=2)

    def producer(index: int) -> Generator:
        for item in range(20):
            yield store.put((index, item))
            yield sim.timeout(0.5 + 0.1 * index)

    def consumer() -> Generator:
        for _ in range(40):
            got = yield store.get()
            with (yield pool.request()):
                yield sim.timeout(0.25 + 0.01 * got[1])

    def racer() -> Generator:
        for round_no in range(10):
            fast = sim.timeout(0.3, value="fast")
            slow = sim.timeout(0.9, value="slow")
            yield sim.any_of([fast, slow])
            yield sim.all_of([slow])
            yield sim.timeout(0.1 * round_no)

    def victim() -> Generator:
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            yield sim.timeout(1.0)
            return "recovered"

    target = sim.process(victim(), name="victim")

    def attacker() -> Generator:
        yield sim.timeout(7.0)
        target.interrupt("now")

    sim.process(producer(0), name="producer-0")
    sim.process(producer(1), name="producer-1")
    sim.process(consumer(), name="consumer")
    sim.process(racer(), name="racer")
    sim.process(attacker(), name="attacker")
    sim.run()
    return sim


def kernel_trace_fingerprint(seed: int = 5) -> Dict[str, Any]:
    """Digest of the seeded kernel event trace (address-normalized)."""
    sim = _mixed_kernel_scenario(seed)
    normalized = "\n".join(
        f"{when:.9f} {_ADDR_RE.sub('0x0', label)}" for when, label in sim.trace_log
    )
    return {
        "seed": seed,
        "events": len(sim.trace_log),
        "final_time": repr(sim.now),
        "sha256": hashlib.sha256(normalized.encode()).hexdigest(),
    }


def experiment_fingerprint(seed: int = 3) -> Dict[str, Any]:
    """End-to-end simulated outputs that must survive any perf work.

    Combines a Fig. 10 registry point (throughput + response time — a
    function of every CPU charge and message size on the lookup path),
    a Fig. 10 index point (exercising the XPath engine, whose
    node-visit counts drive the MDS cost model), and the byte/message
    totals of a full provisioning scenario (the ``lookup``
    observability scenario: resolution, on-demand install, warm-cache
    hit).
    """
    from repro.experiments.fig10 import run_fig10_point
    from repro.obs.scenarios import run_scenario
    from repro.stats import collect_metrics

    point = run_fig10_point("registry", False, 4, n_types=12, seed=seed)
    index_point = run_fig10_point("index", False, 4, n_types=12, seed=seed)
    vo = run_scenario("lookup")
    metrics = collect_metrics(vo)
    return {
        "fig10_throughput": repr(point.throughput),
        "fig10_mean_response_ms": repr(point.mean_response_ms),
        "fig10_index_throughput": repr(index_point.throughput),
        "fig10_index_mean_response_ms": repr(index_point.mean_response_ms),
        "scenario_messages": metrics.total_messages,
        "scenario_wire_bytes": metrics.wire_bytes,
        "scenario_site_bytes_out": metrics.site_bytes_out,
        "scenario_taken_at": repr(metrics.taken_at),
    }


def _kernel_determinism() -> Dict[str, Any]:
    """The kernel suite's pinned ``determinism`` section."""
    return {"kernel_trace": kernel_trace_fingerprint(),
            "experiment": experiment_fingerprint()}


# -- suite runs built from independent benchmarks ------------------------------

#: what a suite's ``run`` returns: its benchmark results plus the other
#: top-level payload sections (the pinned ``fingerprint`` /
#: ``determinism`` section)
SuiteRun = Tuple[List[BenchResult], Dict[str, Any]]


def _split_run(*benches: Callable[[], BenchResult],
               **sections: Callable[[], Dict[str, Any]]) -> Callable[[], SuiteRun]:
    """A suite run made of independent benchmarks, plus pinned sections
    (named by keyword, each produced by its function) that share no
    seeded point with them."""
    def run() -> SuiteRun:
        return ([bench() for bench in benches],
                {name: pin() for name, pin in sections.items()})

    return run


# -- gates: declarative checks over a suite payload ---------------------------

#: the one threshold: a gated counter may rise at most 10 % over its
#: committed value, so every re-record tightens its own budget
BUDGET = 1.10


def _dig(doc: Any, path: str) -> Any:
    """The value at a dotted ``path`` of a suite payload (None if absent)."""
    for key in path.split("."):
        if not isinstance(doc, dict):
            return None
        doc = doc.get(key)
    return doc


@dataclass(frozen=True)
class Gate:
    """A declarative check on one dotted ``path`` of the suite payload.

    Calling a gate with ``(suite, baseline)`` returns its failures
    (empty when it holds) and ``str(gate)`` is the line ``--help``
    prints.  ``note`` says what a violation means.
    """

    path: str
    note: str = ""

    def rule(self) -> str:
        """The condition, as ``--help`` states it after the path."""
        raise NotImplementedError

    def problem(self, current: Any, base: Any) -> Optional[str]:
        """What is wrong with ``current`` (None when the gate holds)."""
        raise NotImplementedError

    def _annotated(self, text: str) -> str:
        return f"{text} — {self.note}" if self.note else text

    def __str__(self) -> str:
        return self._annotated(f"{self.path} {self.rule()}")

    def __call__(self, suite: Dict[str, Any],
                 baseline: Dict[str, Any]) -> List[str]:
        problem = self.problem(_dig(suite, self.path), _dig(baseline, self.path))
        return [self._annotated(f"{self.path} {problem}")] if problem else []


#: what a baseline-reading gate reports when the committed file lacks
#: what it guards (a gate with nothing to compare against is not a pass)
_MISSING = "is missing from the baseline"


class Exact(Gate):
    """Every key of the baseline's ``path`` section must match exactly.

    The walk follows the *committed* section's keys (recursively), so
    any drift of a pinned value names the leaf that moved.
    """

    def rule(self) -> str:
        return "matches the baseline exactly, key by key"

    def __call__(self, suite, baseline):
        def drift(path, current, expected):
            if isinstance(expected, dict) and isinstance(current, dict):
                return [failure for key, value in expected.items()
                        for failure in drift(f"{path}.{key}", current.get(key),
                                             value)]
            if current == expected:
                return []
            return [self._annotated(
                f"{path} drifted: {current!r} != baseline {expected!r}")]

        expected = _dig(baseline, self.path)
        if expected is None:
            return [self._annotated(f"{self.path} {_MISSING}")]
        return drift(self.path, _dig(suite, self.path), expected)


class Budget(Gate):
    """An exact counter may not exceed its committed value x :data:`BUDGET`."""

    def rule(self) -> str:
        return f"<= baseline x {BUDGET:g}"

    def problem(self, current, base):
        if base is None:
            return _MISSING
        limit = base * BUDGET
        if current is not None and current <= limit:
            return None
        return (f"is {current!r}, over its budget {limit:g} "
                f"(baseline {base:g} x {BUDGET:g})")


@dataclass(frozen=True)
class Holds(Gate):
    """A recorded verdict must equal ``bound`` (the baseline is not read)."""

    bound: Any = True

    def rule(self) -> str:
        return f"== {self.bound!r}"

    def problem(self, current, base):
        if current == self.bound:
            return None
        return f"is {current!r}, expected {self.bound!r}"


# -- the table ------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One ``BENCH_<name>.json``: how to produce it and what gates it.

    ``run()`` makes one pass and returns a :data:`SuiteRun`.
    ``gates`` are :class:`Gate` instances.  ``highlights`` are the
    dotted payload paths outside ``results`` that :func:`summarize`
    prints as well.
    """

    run: Callable[[], SuiteRun]
    gates: Tuple[Gate, ...]
    highlights: Tuple[str, ...] = ()


def _detail(result: str, key: str) -> str:
    return f"results.{result}.details.{key}"


SUITES: Dict[str, Suite] = {
    "kernel": Suite(
        run=_split_run(bench_kernel_events, bench_rpc_roundtrips,
                       partial(bench_fig10_point, "registry"),
                       partial(bench_fig10_point, "index"),
                       determinism=_kernel_determinism),
        gates=(
            Budget(_detail("kernel", "kernel_pycalls_per_event"),
                   "Python calls per agenda event (32 tickers x 1,500 "
                   "timeouts): the event loop grew a frame"),
            Budget(_detail("rpc", "rpc_pycalls_per_roundtrip"),
                   "Python calls per bare echo RPC (~99 when every CPU "
                   "claim trips the agenda): an uncontended CPU claim is "
                   "taking an agenda trip again, or a pass-through wrapper "
                   "grew a frame"),
            Budget(_detail("fig10_registry", "fig10_registry_pycalls_per_request"),
                   "Python calls per named lookup at 16 clients x 100 types"),
            Budget(_detail("fig10_index", "fig10_index_pycalls_per_request"),
                   "Python calls per index query at 16 clients x 100 types "
                   "(~420 walking): the XPath surface is back to walking the "
                   "aggregate per query"),
            Exact("determinism", "an optimization changed simulated "
                  "behaviour, a bug regardless of the speedup"),
        ),
        highlights=("determinism.kernel_trace.sha256",
                    "determinism.kernel_trace.events"),
    ),
    "resolution": Suite(
        run=_split_run(bench_resolution),
        gates=(
            Budget(_detail("resolution", "optimized_pycalls_per_resolution"),
                   "Python calls per resolution at the 16-site optimized "
                   "point: the receive side is re-parsing wires, or replies "
                   "are sized member by member again"),
        ),
    ),
    "provisioning": Suite(
        run=_split_run(bench_provisioning),
        gates=(
            Budget(_detail("provisioning", "optimized_pycalls_per_install"),
                   "Python calls per installation at the 16-site optimized "
                   "point: every site compiles the deploy-file for itself "
                   "again, or substitutes uncompiled"),
        ),
    ),
    "obs": Suite(
        run=_split_run(bench_obs),
        gates=(
            Budget(_detail("obs", "obs_extra_pycalls_per_rpc"),
                   "tracing + metrics, over the null tier"),
            Budget(_detail("obs", "slo_extra_pycalls_per_rpc"),
                   "tracing + metrics + one SLO, over the null tier"),
            Holds(_detail("obs", "sim_throughput_equal"),
                  "the observability plane must charge no simulated time"),
            Budget(_detail("obs", "retained_bytes_per_span"),
                   "bytes a finished span keeps alive (~740 when it pinned "
                   "its dead process and kept a name and a kwargs dict of "
                   "its own, ~250 as one object per span): a finished span "
                   "holds more than its row"),
            Exact(_detail("obs", "tracked_objects_per_span"),
                  "GC-tracked objects a finished span keeps alive (1.0 as "
                  "one Span object per span): a finished span is an object "
                  "again"),
        ),
    ),
    "storage": Suite(
        run=_split_run(bench_storage),
        gates=(
            Budget(_detail("storage", "ring_builds_per_routed_vo"),
                   "rings built for a 64-site routed sharded VO (320 when "
                   "every registry home and site built its own): a holder "
                   "asks for a ring with arguments only it uses"),
            Budget(_detail("storage", "ring_point_hashes_per_routed_vo"),
                   "ring-point sha256s of that build (131,072): a "
                   "membership is hashed once per holder"),
        ),
    ),
    "workload": Suite(
        run=_split_run(bench_workload, bench_workload_memory,
                       fingerprint=workload_fingerprint),
        gates=(
            Budget(_detail("workload", "pycalls_per_arrival"),
                   "Python calls per generated + cohort-scheduled arrival"),
            Budget(_detail("workload_memory", "stats_footprint_bytes"),
                   "streaming stats are bounded by their fixed histogram grid "
                   "and window rows"),
            Exact("fingerprint"),
        ),
    ),
    "orchestration": Suite(
        run=_split_run(bench_orchestration,
                       fingerprint=_planner_fingerprint),
        gates=(
            Budget(_detail("orchestration", "pycalls_per_reconcile_round"),
                   "the control loop got expensive"),
            Exact("fingerprint"),
        ),
    ),
}


# -- generic entry points --------------------------------------------------------


def run_suite(name: str) -> Dict[str, Any]:
    """One pass of suite ``name``: its ``BENCH_<name>.json`` payload."""
    results, sections = SUITES[name].run()
    return {
        "suite": f"bench_{name}",
        "results": {r.name: asdict(r) for r in results},
        **sections,
    }


def compare(name: str, suite: Dict[str, Any],
            baseline: Dict[str, Any]) -> List[str]:
    """Every declared gate of ``name``: human-readable failures, each
    naming the suite and the field (empty when all gates hold)."""
    return [f"{name}: {failure}"
            for gate in SUITES[name].gates
            for failure in gate(suite, baseline)]


def describe(name: str) -> str:
    """The gates of ``name``, one line each (rendered into ``--help``)."""
    return "\n".join([f"{name} (BENCH_{name}.json):"]
                     + [f"  {gate}" for gate in SUITES[name].gates])


def _show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 100 else f"{value:.3f}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,d}"
    if isinstance(value, str) and len(value) == 64:
        return value[:16] + "…"
    return str(value)


def summarize(name: str, suite: Dict[str, Any]) -> str:
    """Per-benchmark details plus the declared highlights."""
    lines = [suite["suite"]]
    for result in suite["results"].values():
        lines.append(f"  {result['name']}")
        lines += [f"    {key:36s} {_show(value)}"
                  for key, value in result["details"].items()]
    lines += [f"  {path:38s} {_show(_dig(suite, path))}"
              for path in SUITES[name].highlights]
    return "\n".join(lines)


def dump_suite(suite: Dict[str, Any], path: str) -> None:
    """Write a suite result as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(suite, handle, indent=2, sort_keys=True)
        handle.write("\n")
