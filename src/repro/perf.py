"""Wall-clock performance harness: one gate table, declared once.

The paper's whole evaluation (Figs. 10-13, Table 1) rides on the DES
inner loop, so wall-clock speed of the kernel bounds how large a VO we
can simulate.  This module measures what running the simulator *costs
the host* — wall rates, CPU, RSS and exact Python-call and ring
counters — at fixed seeds.  What a run *simulates* is the
``repro.experiments.registry.EXPERIMENTS`` table's to pin (each entry's
merged digest) and to judge (each entry's ``check``); the only
simulated values pinned here are the ones no experiment runs: the
seeded kernel trace, the end-to-end outputs perf work must not move,
the arrival models and the pure planner.

Everything is driven by :data:`SUITES`: one :class:`Suite` declaration
per committed ``BENCH_<name>.json``, naming

* ``run`` — a single pass that returns the suite's
  :class:`BenchResult` list *and* its pinned section, if any
  (``fingerprint``, or ``determinism`` for the kernel suite);
* ``gates`` — small declarative checks (:class:`Exact`,
  :class:`RateFloor`, :class:`MaxRise`, :class:`Floor`, :class:`Cap`,
  :class:`Holds`, or a plain predicate for a relational check), each a
  callable ``(suite, baseline) -> [failure, ...]``;
* ``highlights`` — the dotted payload paths worth printing.

:func:`run_suite`, :func:`compare`, :func:`summarize`,
:func:`describe` and :func:`dump_suite` are the only consumers, so
another suite is one more entry in the table.  The suites: ``kernel``
(event churn, echo RPCs, two scaled Fig. 10 points, the seeded kernel
trace), ``resolution`` and ``provisioning`` (the host cost of the
Fig. 14 / Fig. 15 16-site pairs), ``obs`` (instrumentation tiers),
``storage`` (Fig. 17 flat vs sharded backends, ring work), ``workload``
(Fig. 18 arrival engine, memory flatness, arrival models) and
``orchestration`` (Fig. 19 control loop, planner policy).

``benchmarks/bench_wallclock.py`` is the CLI over this table.
Everything here uses only public simulator APIs so the harness itself
is independent of kernel internals.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource as _resource
import time

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
    """One microbenchmark measurement.

    Besides the wall-clock headline, every benchmark records the CPU
    time its measured section actually consumed (``cpu_seconds`` — user
    plus system, via ``time.process_time``) and the process's peak RSS
    when it finished (``peak_rss_kb``).  Wall/CPU divergence flags a
    loaded machine (rates untrustworthy); per-benchmark RSS attributes
    memory growth to the workload that caused it, which the old single
    suite-level figure could not.  RSS is a process-lifetime high-water
    mark, so within one process later benchmarks inherit earlier peaks;
    under ``--jobs`` each benchmark runs in its own worker and the
    figure is genuinely its own.
    """

    name: str
    metric: str  # e.g. "events_per_sec"
    value: float  # the headline rate
    wall_seconds: float
    work_units: int  # events / RPCs / requests completed
    cpu_seconds: float = 0.0
    peak_rss_kb: int = 0
    details: Dict[str, Any] = field(default_factory=dict)


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes."""
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def current_rss_kb() -> int:
    """Current (not peak) resident set size, in kilobytes.

    The memory-flatness gates need before/after deltas around a single
    workload, which the process-lifetime high-water mark of
    :func:`peak_rss_kb` cannot provide.  Falls back to the peak figure
    on platforms without ``/proc``.
    """
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * (_resource.getpagesize() // 1024)
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return peak_rss_kb()


class _Stopwatch:
    """Wall-clock and CPU (user + system) seconds spent in a ``with`` block."""

    wall = cpu = 0.0

    def __enter__(self) -> "_Stopwatch":
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cpu = time.process_time() - self._cpu
        self.wall = time.perf_counter() - self._wall


def _rate_result(name: str, metric: str, work_units: int, watch: _Stopwatch,
                 details: Dict[str, Any]) -> BenchResult:
    """A result whose headline is ``work_units`` per measured wall second."""
    return BenchResult(
        name=name, metric=metric, value=work_units / watch.wall,
        wall_seconds=watch.wall, work_units=work_units,
        cpu_seconds=watch.cpu, peak_rss_kb=peak_rss_kb(), details=details,
    )


# -- kernel microbenchmark -------------------------------------------------


def bench_kernel_events(
    n_procs: int = 64, events_per_proc: int = 4000, seed: int = 11
) -> BenchResult:
    """Pure event churn: ``n_procs`` processes yielding timeouts.

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
    with _Stopwatch() as watch:
        sim.run()
    # per process: one init event, one timeout per tick, one
    # termination event for the Process itself
    events = n_procs * (events_per_proc + 2)
    return _rate_result(
        "kernel", "events_per_sec", events, watch,
        {"n_procs": n_procs, "events_per_proc": events_per_proc,
         "final_time": sim.now},
    )


# -- RPC microbenchmark ----------------------------------------------------


def _echo_world(seed: int, clients: int, obs: Any = None):
    """Closed-loop echo clients on a 4-site star around one server.

    Returns ``(sim, net, completed)`` with the SLO engine (if ``obs``
    carries one) and the client processes already started;
    ``completed[0]`` counts finished round-trips.  One topology for the
    RPC benchmark and every observability tier, so the tiers' rate
    deltas are pure instrumentation overhead.
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
        obs.slo.start()

    completed = [0]

    def client(index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        payload = f"ping-{index:03d}"
        while True:
            yield from net.call(site, "server", "echo", "echo", payload=payload)
            completed[0] += 1

    for index in range(clients):
        sim.process(client(index), name=f"echo-client-{index}")
    return sim, net, completed


def bench_rpc_roundtrips(
    clients: int = 8, horizon: float = 40.0, seed: int = 11
) -> BenchResult:
    """Closed-loop echo RPCs: the full marshalling + transport path."""
    sim, net, completed = _echo_world(seed, clients)
    with _Stopwatch() as watch:
        sim.run(until=horizon)
    return _rate_result(
        "rpc", "rpcs_per_sec", completed[0], watch,
        {"clients": clients, "sim_horizon": horizon,
         "sim_throughput": completed[0] / horizon,
         "wire_bytes": net.total_bytes,
         # the wall rate's exact twin: one fixed contended point (8
         # clients on the 2-core server) whatever the suite mode
         "rpc_pycalls_per_roundtrip": round(
             _echo_pycalls_per_rpc("off", clients=8, horizon=4.0), 2)},
    )


def count_pycalls(run: Callable[[], Any]) -> Tuple[int, Any]:
    """Python ``call`` events (function entries + generator resumes)
    inside ``run()``, and what it returned.

    A collection beforehand finalises earlier worlds' suspended calls
    (closing them runs their layers' exit hooks), which would otherwise
    land inside the count.
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


# -- scaled Fig. 10 scenario ----------------------------------------------


def bench_fig10_point(
    kind: str, clients: int = 8, n_types: int = 30, seed: int = 3
) -> BenchResult:
    """Scaled-down Fig. 10 point: ``"registry"`` (named hash-table
    lookups) or ``"index"`` (XPath over the aggregation)."""
    from repro.experiments.fig10 import run_fig10_point

    with _Stopwatch() as watch:
        point = run_fig10_point(kind, False, clients, n_types=n_types, seed=seed)
    # simulated requests completed over the 30 s horizon
    requests = int(round(point.throughput * 25.0))
    return _rate_result(
        f"fig10_{kind}", "sim_requests_per_wall_sec", requests, watch,
        {"sim_throughput_rps": point.throughput,
         "mean_response_ms": point.mean_response_ms},
    )


def _fig10_index_pycalls_per_request(clients: int = 16, n_types: int = 100,
                                     seed: int = 3) -> float:
    """Python ``call`` events per completed index query at one fixed
    Fig. 10 point: the exact, machine-independent host cost of the
    XPath query surface (see :func:`_echo_pycalls_per_rpc`).

    The whole point is counted, build included — registering the
    documents is part of what an index costs.  The point is the same
    whatever the suite mode; a small unprofiled point with the same
    clients first absorbs query compilation and route searches, so the
    number does not depend on what ran before.  A query surface that
    walks the aggregate per query costs ~420 here; an indexed one ~185.
    """
    from repro.experiments.fig10 import run_fig10_point

    run_fig10_point("index", False, clients, n_types=clients, seed=seed)
    calls, point = count_pycalls(
        lambda: run_fig10_point("index", False, clients, n_types=n_types, seed=seed))
    return calls / round(point.throughput * 25.0)


def bench_fig10_index(clients: int = 8, n_types: int = 30, seed: int = 3) -> BenchResult:
    """The ``"index"`` point's wall rate plus its exact call-count twin."""
    result = bench_fig10_point("index", clients, n_types, seed)
    result.details["fig10_index_pycalls_per_request"] = round(
        _fig10_index_pycalls_per_request(), 2)
    return result


# -- resolution-path benchmark (Fig. 14 machinery) -------------------------


def _run_resolution(quick: bool, repeats: int = 1, jobs: int = 1) -> SuiteRun:
    """Host cost of one Fig. 14 point pair: broadcast baseline vs scaled path.

    The headline rate is wall-clock (resolutions simulated per wall
    second, both series combined).  The points are fig14's quick-grid
    units at their default seed, so what they simulate — message
    counts, result sets — is that entry's to pin and judge.
    """
    from repro.experiments.fig14 import run_fig14_point, run_revalidation_point

    n_sites = 16
    with _Stopwatch() as watch:
        base = run_fig14_point(n_sites, optimized=False)
        opt = run_fig14_point(n_sites, optimized=True)
        reval = run_revalidation_point()
    # the exact, machine-independent host cost of the optimized point
    # (see _fig10_index_pycalls_per_request); the timed run above has
    # already absorbed every first-sight parse, route and compilation
    calls, counted = count_pycalls(
        lambda: run_fig14_point(n_sites, optimized=True))
    return [_rate_result(
        "resolution", "sim_resolutions_per_wall_sec",
        base.resolutions + opt.resolutions, watch,
        {
            "n_sites": n_sites,
            "message_ratio": (base.messages_per_resolution
                              / max(opt.messages_per_resolution, 1e-9)),
            "optimized_pycalls_per_resolution": round(
                calls / counted.resolutions, 2),
            "revalidation_per_entry_messages": reval.per_entry_messages,
            "revalidation_batched_messages": reval.batched_messages,
        },
    )], {}


# -- provisioning-path benchmark (Fig. 15 machinery) -----------------------


def _run_provisioning(quick: bool, repeats: int = 1, jobs: int = 1) -> SuiteRun:
    """Host cost of one Fig. 15 point pair: serial origin-only vs
    parallel/replica.

    The headline rate is wall-clock (installations simulated per wall
    second, both series combined).  The points are fig15's quick-grid
    units at their default seed, so what they simulate — rollout times,
    origin bytes, deployment sets — is that entry's to pin and judge.
    """
    from repro.experiments.fig15 import run_fig15_point

    n_sites = 16
    with _Stopwatch() as watch:
        base = run_fig15_point(n_sites, optimized=False)
        opt = run_fig15_point(n_sites, optimized=True)
    # the exact host cost of the optimized point (see _run_resolution);
    # the timed run above has already compiled the deploy-file
    calls, counted = count_pycalls(
        lambda: run_fig15_point(n_sites, optimized=True))
    return [_rate_result(
        "provisioning", "sim_installs_per_wall_sec",
        base.installed + opt.installed, watch,
        {
            "n_sites": n_sites,
            "baseline_rollout_elapsed": base.rollout_elapsed,
            "optimized_rollout_elapsed": opt.rollout_elapsed,
            "rollout_speedup": (base.rollout_elapsed
                                / max(opt.rollout_elapsed, 1e-9)),
            "baseline_origin_bytes_out": base.origin_bytes_out,
            "optimized_origin_bytes_out": opt.origin_bytes_out,
            "replica_hits": opt.replica_hits,
            "optimized_pycalls_per_install": round(
                calls / counted.installed, 2),
        },
    )], {}


# -- observability-overhead benchmark (obs + SLO plane) ---------------------

def _tier_observability(tier: str):
    """The observability bundle of one echo tier.

    ``tier`` is ``"off"`` (null observability — the production default),
    ``"obs"`` (tracer + metrics layers) or ``"slo"`` (tracer + metrics +
    SLO engine fed by the pipeline).
    """
    from repro.obs import Observability
    from repro.obs.slo import SLOSpec

    if tier == "obs":
        return Observability(enabled=True, sample_interval=5.0)
    if tier == "slo":
        # an availability objective over the echo endpoint (default alert
        # rules), so every RPC crosses the SLO layer and engine
        return Observability(enabled=True, sample_interval=5.0, slos=(
            SLOSpec(name="echo-availability", endpoint="echo.*", target=0.999),
        ))
    return None


def _echo_tier_run(tier: str, clients: int, horizon: float, seed: int) -> Dict[str, Any]:
    """One closed-loop echo workload at a given observability tier."""
    sim, _net, completed = _echo_world(seed, clients,
                                       obs=_tier_observability(tier))
    start = time.perf_counter()
    sim.run(until=horizon)
    wall = time.perf_counter() - start
    return {
        "rpcs": completed[0],
        "wall_seconds": wall,
        "rpcs_per_wall_sec": completed[0] / wall,
        "sim_throughput": completed[0] / horizon,
    }


def _echo_pycalls_per_rpc(tier: str, clients: int = 4, horizon: float = 10.0,
                         seed: int = 11) -> float:
    """Python ``call`` events (function entries + generator resumes) per
    echo RPC at one tier: an exact, machine-independent cost counter.

    Fixed workload whatever the suite mode (4 clients x 10 simulated
    seconds, 4,630 RPCs), so quick and full runs record the same number.
    What ran before must stay out of the count: one unprofiled simulated
    second absorbs route searches and other first-use paths (and see
    :func:`count_pycalls`).
    """
    sim, _net, completed = _echo_world(seed, clients,
                                       obs=_tier_observability(tier))
    sim.run(until=1.0)
    warm = completed[0]
    calls, _ = count_pycalls(lambda: sim.run(until=1.0 + horizon))
    return calls / (completed[0] - warm)


def bench_obs(
    clients: int = 8, horizon: float = 40.0, seed: int = 11
) -> BenchResult:
    """Instrumentation overhead: echo RPCs with obs off / on / on+SLOs.

    The *simulated* throughput must be identical across tiers (the
    observability plane charges no simulated time); only wall-clock
    differs.  The headline value is the instrumented-with-SLOs rate;
    ``details`` carries the per-tier rates and the overhead fractions
    the CI gate checks.
    """
    cpu_start = time.process_time()
    runs = {tier: _echo_tier_run(tier, clients, horizon, seed)
            for tier in ("off", "obs", "slo")}
    cpu = time.process_time() - cpu_start
    base_rate = runs["off"]["rpcs_per_wall_sec"]
    overhead = {
        tier: 1.0 - runs[tier]["rpcs_per_wall_sec"] / base_rate
        for tier in ("obs", "slo")
    }
    pycalls = {tier: _echo_pycalls_per_rpc(tier) for tier in ("off", "obs", "slo")}
    return BenchResult(
        name="obs",
        metric="instrumented_rpcs_per_wall_sec",
        value=runs["slo"]["rpcs_per_wall_sec"],
        wall_seconds=sum(r["wall_seconds"] for r in runs.values()),
        work_units=sum(r["rpcs"] for r in runs.values()),
        cpu_seconds=cpu,
        peak_rss_kb=peak_rss_kb(),
        details={
            "clients": clients,
            "sim_horizon": horizon,
            "null_rpcs_per_wall_sec": base_rate,
            "obs_rpcs_per_wall_sec": runs["obs"]["rpcs_per_wall_sec"],
            "slo_rpcs_per_wall_sec": runs["slo"]["rpcs_per_wall_sec"],
            "obs_overhead_frac": overhead["obs"],
            "slo_overhead_frac": overhead["slo"],
            "obs_extra_pycalls_per_rpc": round(pycalls["obs"] - pycalls["off"], 2),
            "slo_extra_pycalls_per_rpc": round(pycalls["slo"] - pycalls["off"], 2),
            "sim_throughput_equal": len(
                {r["sim_throughput"] for r in runs.values()}
            ) == 1,
        },
    )


# -- sharded-storage benchmark (Fig. 17 machinery) --------------------------


def bench_storage(n_types: int = 100_000, shards: int = 16) -> BenchResult:
    """Registry-backend lookup cost: flat dict vs consistent-hash shards.

    Loads both backends at a small anchor size and at ``n_types``, and
    reports warm per-lookup CPU for each.  The headline rate is sharded
    lookups per wall second at ``n_types``; the *in-run flatness ratio*
    (sharded per-lookup at ``n_types`` over the anchor point) lands in
    ``details`` — it is a same-machine ratio, so it travels across
    hosts the way absolute nanoseconds never do.
    """
    from repro.experiments.fig17 import run_storage_point

    anchor_size = 1_000
    with _Stopwatch() as watch:
        anchor = run_storage_point(anchor_size, shard_counts=(shards,))
        point = run_storage_point(n_types, shard_counts=(shards,))
    sharded = {p.backend: p for p in point}[f"sharded/{shards}"]
    sharded_anchor = {p.backend: p for p in anchor}[f"sharded/{shards}"]
    return BenchResult(
        name="storage",
        metric="sharded_lookups_per_wall_sec",
        value=1e9 / sharded.per_lookup_ns,
        wall_seconds=watch.wall,
        work_units=2 * (n_types + anchor_size),  # records loaded
        cpu_seconds=watch.cpu,
        peak_rss_kb=peak_rss_kb(),
        details={
            "n_types": n_types,
            "shards": shards,
            "dict_per_lookup_ns": point[0].per_lookup_ns,
            "sharded_per_lookup_ns": sharded.per_lookup_ns,
            "flatness_ratio": (sharded.per_lookup_ns
                               / sharded_anchor.per_lookup_ns),
            "max_shard": sharded.max_shard,
            "imbalance": sharded.imbalance,
            **ring_work_per_routed_vo(),
        },
    )


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


def bench_workload(target_arrivals: int = 1_500_000, seed: int = 17) -> BenchResult:
    """Arrival-engine throughput: generate + schedule a diurnal trace.

    Generates a non-homogeneous (two-region diurnal) arrival trace
    sized to ``target_arrivals`` and injects it into a bare simulator
    as same-timestamp cohorts, running the agenda to exhaustion.  The
    headline rate counts *both* phases — an arrival only counts once
    its cohort event has actually dispatched — so the figure is the
    end-to-end cost of putting one open-loop user on the wire.  The
    1M-arrivals-per-wall-second gate in ``BENCH_workload.json`` rides
    this number.
    """
    from repro.load.arrivals import DiurnalRate, NHPoissonProcess
    from repro.load.inject import CohortInjector

    horizon = 50.0
    # two staggered regions, weights summing to 1 => mean rate == base
    rate = DiurnalRate(target_arrivals / horizon, amplitude=0.8,
                       period=horizon, regions=((0.0, 0.6), (0.3 * horizon, 0.4)))
    model = NHPoissonProcess(rate, name="bench-diurnal")

    with _Stopwatch() as watch:
        with _Stopwatch() as generate:
            times = model.sample(horizon, seed)
        sim = Simulator(seed=seed)
        injector = CohortInjector(sim, times, lambda t, i: None, tick=0.005)
        injector.start()
        sim.run()
    if injector.fired != times.size:  # pragma: no cover - harness invariant
        raise RuntimeError(
            f"cohort injection dropped arrivals: fired {injector.fired} "
            f"of {times.size}"
        )
    return _rate_result(
        "workload", "arrivals_per_wall_sec", int(times.size), watch,
        {
            "target_arrivals": target_arrivals,
            "arrivals": int(times.size),
            "cohorts": injector.cohorts,
            "generate_seconds": generate.wall,
            "schedule_seconds": watch.wall - generate.wall,
            "final_time": sim.now,
        },
    )


def bench_workload_memory(
    target_arrivals: int = 1_000_000, anchor_arrivals: int = 50_000
) -> BenchResult:
    """Memory flatness of the full open-loop fig18 path.

    Runs the fixed-rate overload scenario at an anchor size and at
    ``target_arrivals`` (a 20x step in the full suite), reading RSS
    before and after each.  A small throwaway run first pages in the
    code and numpy buffers so the anchor delta is not polluted by
    one-time warm-up.  Streaming stats bound the per-run state to the
    fixed histogram grid plus one window row per elapsed window, so the
    target run's RSS growth must stay O(1) in the arrival count — the
    ``BENCH_workload.json`` gate caps it absolutely, which works at
    both quick and full sizes precisely because flat means
    size-independent.
    """
    from repro.experiments.fig18 import run_fig18_memory

    run_fig18_memory(max(anchor_arrivals // 5, 2_000))  # warm-up, unmeasured

    rss0 = current_rss_kb()
    anchor = run_fig18_memory(anchor_arrivals)
    anchor_growth = current_rss_kb() - rss0

    rss1 = current_rss_kb()
    with _Stopwatch() as watch:
        out = run_fig18_memory(target_arrivals)
    target_growth = current_rss_kb() - rss1

    arrivals = int(out["arrivals"])
    return _rate_result(
        "workload_memory", "sim_arrivals_per_wall_sec", arrivals, watch,
        {
            "target_arrivals": target_arrivals,
            "anchor_arrivals": int(anchor["arrivals"]),
            "anchor_rss_growth_kb": int(anchor_growth),
            "target_rss_growth_kb": int(target_growth),
            "rss_bytes_per_arrival": 1024.0 * max(target_growth, 0) / arrivals,
            "stats_footprint_bytes": int(out["stats_footprint_bytes"]),
            "completed": int(out["completed"]),
            "shed": int(out["shed"]),
            "digest": out["digest"],
        },
    )


def workload_fingerprint(seed: int = 41) -> Dict[str, Any]:
    """Deterministic digest of the arrival models, which no experiment
    runs on their own.

    Arrival-trace digests (sha256 over the raw float64 timestamps) pin
    every generator model bit-for-bit; the cohort count pins the
    quantisation grid.  Both are pure draws from named streams, so the
    same sizes run in quick and full mode and the committed
    ``BENCH_workload.json`` pins them across refactors (the open-loop
    path itself is fig18's, pinned by its merged digest).
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

def _planner_decision_digest(seed: int = 43) -> str:
    """Digest of the pure planner over a grid of synthetic worlds.

    No simulator at all: every (utilization level, shed level, health
    mix, placement count) cell is planned once and its TypePlan folded
    into one sha256.  Catches policy drift — threshold comparisons,
    tie-breaking, clamping — independently of the simulation around it.
    """
    from repro.orchestrate.planner import Observed, Planner, SiteObservation
    from repro.orchestrate.spec import DeploymentSpec, OrchestrationConfig

    planner = Planner(OrchestrationConfig())
    spec = DeploymentSpec(type_name="T", min_replicas=1, max_replicas=3,
                          target_utilization=0.6)
    digest = hashlib.sha256(f"planner|{seed}".encode())
    site_names = ("a", "b", "c", "d")
    for busy in (0.05, 0.3, 0.65, 0.95):
        for shed in (0, 5):
            for bad in ("", "a", "d"):
                for n_placed in (0, 1, 2, 4):
                    sites = tuple(
                        SiteObservation(
                            site=name,
                            utilization=busy * (1.0 + 0.1 * index),
                            load=busy * 4.0,
                            run_queue=index,
                            shed=shed if index == 0 else 0,
                            health="down" if name == bad else "healthy",
                        )
                        for index, name in enumerate(site_names)
                    )
                    observed = Observed(
                        sites=sites,
                        placements={"T": site_names[:n_placed]},
                    )
                    tp = planner.plan([spec], observed).types[0]
                    digest.update(
                        f"{busy}|{shed}|{bad}|{n_placed}=>"
                        f"{tp.desired}|{tp.placements}|{tp.add}|{tp.remove}"
                        f"|{tp.reason};".encode()
                    )
    return digest.hexdigest()


def _run_orchestration(quick: bool, repeats: int = 1, jobs: int = 1) -> SuiteRun:
    """Wall-clock cost of the desired-state loop, plus the pure planner.

    Times fig19's quick orchestrated flash crowd — thousands of
    open-loop arrivals with the reconciler observing, planning and
    actuating every interval — in both suite modes and reports
    simulated reconcile rounds per wall second: the loop must stay a
    negligible slice of a busy simulation's wall time.  What that run
    simulates is fig19's to pin and judge; the planner decision digest
    pins the pure policy layer, which no experiment runs alone.
    """
    from repro.experiments.fig19 import EXPERIMENT, run_fig19_flash

    seed = 43
    with _Stopwatch() as watch:
        flash = run_fig19_flash(orchestrated=True, seed=seed, **EXPERIMENT.quick)
    result = _rate_result(
        "orchestration", "reconcile_rounds_per_wall_sec",
        flash.reconcile_rounds, watch,
        {
            "rounds": flash.reconcile_rounds,
            "installs": flash.installs,
            "drains": flash.drains,
            "max_replicas_seen": flash.max_replicas_seen,
            "convergence_times": [round(t, 6) for t in flash.convergence_times],
        },
    )
    return [result], {"fingerprint": {
        "seed": seed,
        "planner_decisions": _planner_decision_digest(seed),
    }}


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
        while True:
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


# -- suite runs built from independent benchmark units -------------------------


def _split_run(*benches: Tuple[Callable[..., BenchResult], Dict[str, Any]],
               fingerprint: Optional[Callable[[], Dict[str, Any]]] = None):
    """A suite run made of independent benchmarks (and a fingerprint
    that shares no seeded point with them).

    ``benches`` are ``(function, quick-mode kwargs)`` pairs; the full
    run uses each function's defaults.  The fingerprint uses the same
    cheap sizes in both modes, so a quick CI run gates against a
    baseline recorded with the full suite.
    """
    def run(quick: bool, repeats: int = 1, jobs: int = 1) -> SuiteRun:
        results = [bench(**(quick_kwargs if quick else {}))
                   for bench, quick_kwargs in benches]
        return results, {"fingerprint": fingerprint()} if fingerprint else {}

    return run


#: kernel-suite benchmarks in suite order: name -> (function, quick-mode
#: kwargs); the full run uses each function's defaults
_KERNEL_BENCHES = {
    "kernel": (bench_kernel_events, {"n_procs": 32, "events_per_proc": 1500}),
    "rpc": (bench_rpc_roundtrips, {"clients": 4, "horizon": 15.0}),
    "fig10_registry": (partial(bench_fig10_point, "registry"),
                       {"clients": 4, "n_types": 20}),
    "fig10_index": (bench_fig10_index, {"clients": 4, "n_types": 20}),
}

#: the kernel suite's ``determinism`` sections
_KERNEL_PINS = {
    "kernel_trace": kernel_trace_fingerprint,
    "experiment": experiment_fingerprint,
}


def run_bench_unit(name: str, quick: bool = False) -> Any:
    """One kernel-suite work unit, addressable by name (the ``--jobs`` entry).

    Module-level so :mod:`repro.runner` can ship it to a worker as a
    dotted path.  Benchmark units return a :class:`BenchResult`;
    fingerprint units return their digest dict.  Every unit's seed is
    the fixed one baked into its benchmark — repeat batches
    *intentionally* re-run the identical workload (they measure wall
    clock, not new behaviour), so no per-repeat seed derivation here.
    """
    if name in _KERNEL_PINS:
        return _KERNEL_PINS[name]()
    bench, quick_kwargs = _KERNEL_BENCHES[name]
    return bench(**(quick_kwargs if quick else {}))


def _run_kernel(quick: bool, repeats: int = 1, jobs: int = 1) -> SuiteRun:
    """Every kernel benchmark, best (lowest-wall) of ``repeats``.

    Every (benchmark, repeat) batch — and the two determinism
    fingerprints — is a :mod:`repro.runner` work unit, inline at
    ``jobs=1`` and fanned across workers otherwise.  The reduction
    (best-of per benchmark) is order-independent, and each worker
    measures its own RSS, so the per-benchmark peak figures are
    genuinely per-benchmark.  The worker count lands in the suite
    metadata: wall-clock rates from an oversubscribed parallel run are
    not comparable to serial ones (see :func:`_same_jobs`).
    """
    from repro.runner import WorkUnit, run_units

    repeats = max(1, repeats)
    units = [
        WorkUnit(f"{name}#r{i}", "repro.perf:run_bench_unit",
                 {"name": name, "quick": quick})
        for name in _KERNEL_BENCHES
        for i in range(repeats)
    ]
    units += [WorkUnit(name, "repro.perf:run_bench_unit", {"name": name})
              for name in _KERNEL_PINS]
    outputs = run_units(units, jobs=jobs)
    n_batches = len(_KERNEL_BENCHES) * repeats
    results = [min(outputs[at:at + repeats], key=lambda r: r.wall_seconds)
               for at in range(0, n_batches, repeats)]
    return results, {
        "suite": "bench_wallclock",
        "repeats": repeats,
        "jobs": jobs,
        "determinism": dict(zip(_KERNEL_PINS, outputs[n_batches:])),
        "peak_rss_kb": peak_rss_kb(),
    }


# -- gates: declarative checks over a suite payload ---------------------------

#: what a suite's ``run`` returns: its benchmark results plus the other
#: top-level payload sections (the pinned ``fingerprint`` /
#: ``determinism`` section, the kernel suite's worker metadata)
SuiteRun = Tuple[List[BenchResult], Dict[str, Any]]


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
    prints, so the threshold lives in exactly one place: the
    declaration.  ``note`` says what a violation means; ``noisy`` marks
    a bound on a wall-clock or RSS figure, which depends on the host in
    a way the simulated figures never do.
    """

    path: str
    bound: Any = None
    note: str = ""
    noisy: bool = False

    def rule(self) -> str:
        """The condition, as ``--help`` states it after the path."""
        raise NotImplementedError

    def problem(self, current: Any, base: Any) -> Optional[str]:
        """What is wrong with ``current`` (None when the gate holds)."""
        raise NotImplementedError

    def _annotated(self, text: str) -> str:
        return f"{text} — {self.note}" if self.note else text

    def __str__(self) -> str:
        host = "  [host-dependent]" if self.noisy else ""
        return self._annotated(f"{self.path} {self.rule()}{host}")

    def __call__(self, suite: Dict[str, Any],
                 baseline: Dict[str, Any]) -> List[str]:
        problem = self.problem(_dig(suite, self.path), _dig(baseline, self.path))
        return [self._annotated(f"{self.path} {problem}")] if problem else []


class Exact(Gate):
    """Every key of the baseline's ``path`` section must match exactly.

    The walk follows the *committed* section's keys (recursively), so a
    newly added figure passes until the baseline is re-recorded, while
    any drift of a pinned one names the leaf that moved.
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

        return drift(self.path, _dig(suite, self.path) or {},
                     _dig(baseline, self.path) or {})


@dataclass(frozen=True)
class RateFloor(Gate):
    """A wall-clock rate may not drop more than ``bound`` below baseline.

    Absolute rates vary across machines; a large drop on the same
    machine family signals a real fast-path regression.  Rates recorded
    under different worker counts are not the same measurement, so the
    gate stands aside there and lets :func:`_same_jobs` refuse.
    """

    noisy: bool = True

    def rule(self) -> str:
        return f">= {1.0 - self.bound:.0%} of baseline"

    def __call__(self, suite, baseline):
        if _same_jobs(suite, baseline):
            return []
        return super().__call__(suite, baseline)

    def problem(self, current, base):
        if current is None or not base or base <= 0:
            return None
        ratio = current / base
        if ratio >= 1.0 - self.bound:
            return None
        return (f"is {current:,.1f}, {(1.0 - ratio) * 100:.1f}% below "
                f"baseline {base:,.1f} (tolerance {self.bound:.0%})")


@dataclass(frozen=True)
class MaxRise(Gate):
    """A cost may not rise above baseline x (1 + ``bound``) + ``plus``."""

    plus: float = 0.0

    def rule(self) -> str:
        factor = f" x {1.0 + self.bound:g}" if self.bound else ""
        return f"<= baseline{factor}" + (f" + {self.plus:g}" if self.plus else "")

    def problem(self, current, base):
        if current is None or base is None or (self.bound and base <= 0):
            return None
        limit = base * (1.0 + (self.bound or 0.0)) + self.plus
        if current <= limit:
            return None
        return f"is {current:g}, above the {limit:g} allowed over baseline {base:g}"


class Floor(Gate):
    """The value must be at least ``bound`` (absolute, no baseline)."""

    def rule(self) -> str:
        return f">= {self.bound:,g}"

    def problem(self, current, base):
        if current is not None and current >= self.bound:
            return None
        return f"is {current!r}, below the required {self.bound:,g}"


class Cap(Gate):
    """The value must be at most ``bound`` (absolute, no baseline)."""

    def rule(self) -> str:
        return f"<= {self.bound:,g}"

    def problem(self, current, base):
        if current is not None and current <= self.bound:
            return None
        return f"is {current!r}, above the cap {self.bound:,g}"


class Holds(Gate):
    """A recorded boolean / count / verdict must equal ``bound``."""

    def rule(self) -> str:
        return f"== {self.bound!r}"

    def problem(self, current, base):
        if current == self.bound:
            return None
        return f"is {current!r}, expected {self.bound!r}"


def _same_jobs(suite, baseline) -> List[str]:
    """jobs == the baseline's worker count: concurrent workers timeshare
    cores, so rates from different counts are not comparable"""
    jobs, base_jobs = suite.get("jobs", 1), baseline.get("jobs", 1)
    if jobs == base_jobs:
        return []
    return [f"jobs: suite ran with jobs={jobs} but the baseline was recorded "
            f"with jobs={base_jobs}; rates are not comparable — rerun with "
            "matching --jobs or re-record the baseline"]


# -- the table ------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One ``BENCH_<name>.json``: how to produce it and what gates it.

    ``run(quick, repeats, jobs)`` makes one pass and returns a
    :data:`SuiteRun`; ``repeats`` / ``jobs`` only mean something to a
    suite made of independent wall-rate units (the kernel suite) —
    single-scenario suites run once.  ``gates`` are callables
    ``(suite, baseline) -> [failure, ...]``: :class:`Gate` instances,
    or a plain predicate whose docstring is its description.
    ``highlights`` are the dotted payload paths outside ``results``
    that :func:`summarize` prints as well.
    """

    run: Callable[[bool, int, int], SuiteRun]
    gates: Tuple[Callable[[Dict[str, Any], Dict[str, Any]], List[str]], ...]
    highlights: Tuple[str, ...] = ()


def _detail(result: str, key: str) -> str:
    return f"results.{result}.details.{key}"


SUITES: Dict[str, Suite] = {
    "kernel": Suite(
        run=_run_kernel,
        gates=(
            _same_jobs,
            RateFloor("results.kernel.value", 0.25),
            RateFloor("results.rpc.value", 0.25),
            Cap(_detail("rpc", "rpc_pycalls_per_roundtrip"), 66,
                "exact Python calls per bare echo RPC (recorded 60.1 + 10%; "
                "~99 when every CPU claim trips the agenda): an uncontended "
                "CPU claim is taking an agenda trip again, or a pass-through "
                "wrapper grew a frame"),
            Cap(_detail("fig10_index", "fig10_index_pycalls_per_request"), 203,
                "exact Python calls per index query at 16 clients x 100 "
                "types (recorded 184.75 + 10%): the XPath surface is back "
                "to walking the aggregate per query"),
            Exact("determinism", note="an optimization changed simulated "
                  "behaviour, a bug regardless of the speedup"),
        ),
        highlights=("peak_rss_kb", "determinism.kernel_trace.sha256",
                    "determinism.kernel_trace.events"),
    ),
    "resolution": Suite(
        run=_run_resolution,
        gates=(
            Cap(_detail("resolution", "optimized_pycalls_per_resolution"), 2110,
                "exact Python calls per resolution at the 16-site optimized "
                "point (recorded 1,918.21 + 10%): resolving got heavier on "
                "the host — the receive side is re-parsing wires, or replies "
                "are sized member by member again"),
        ),
    ),
    "provisioning": Suite(
        run=_run_provisioning,
        gates=(
            Cap(_detail("provisioning", "optimized_pycalls_per_install"), 4263,
                "exact Python calls per installation at the 16-site optimized "
                "point (recorded 3,875.06 + 10%): every site compiles the "
                "deploy-file for itself again, or substitutes uncompiled"),
        ),
    ),
    "obs": Suite(
        run=_split_run((bench_obs, {"clients": 4, "horizon": 15.0})),
        gates=(
            # overhead *fractions* are same-machine ratios, so they travel
            Cap(_detail("obs", "obs_overhead_frac"), 0.60, noisy=True),
            MaxRise(_detail("obs", "obs_overhead_frac"), plus=0.15, noisy=True),
            Cap(_detail("obs", "slo_overhead_frac"), 0.60, noisy=True),
            MaxRise(_detail("obs", "slo_overhead_frac"), plus=0.15, noisy=True),
            # exact counters: Python calls the plane adds to one echo RPC
            Cap(_detail("obs", "obs_extra_pycalls_per_rpc"), 35,
                "tracing + metrics, over the null tier"),
            Cap(_detail("obs", "slo_extra_pycalls_per_rpc"), 50,
                "tracing + metrics + one SLO, over the null tier"),
            Holds(_detail("obs", "sim_throughput_equal"), True,
                  "the observability plane must charge no simulated time"),
        ),
    ),
    "storage": Suite(
        run=_split_run((bench_storage, {"n_types": 10_000})),
        gates=(
            # generous: fig17 itself asserts 1.3x; the CI tripwire allows
            # 1.5x so shared runners don't flake
            Cap(_detail("storage", "flatness_ratio"), 1.5,
                "sharded per-lookup CPU at the sweep size over the in-run "
                "10^3 anchor: lookups must stay flat", noisy=True),
            Cap(_detail("storage", "ring_builds_per_routed_vo"), 2.2,
                "exact rings built for a 64-site routed sharded VO (recorded "
                "2 + 10%; 320 when every registry home and site built its "
                "own): a holder asks for a ring with arguments only it uses"),
            Cap(_detail("storage", "ring_point_hashes_per_routed_vo"), 1408,
                "exact ring-point sha256s of that build (recorded 1,280 + "
                "10%; 131,072): a membership is hashed once per holder"),
        ),
    ),
    "workload": Suite(
        # the 1M/s arrival-rate floor and the absolute RSS-growth cap
        # both hold at the quick sizes as well as the full ones
        run=_split_run((bench_workload, {"target_arrivals": 200_000}),
                       (bench_workload_memory, {"target_arrivals": 48_000,
                                                "anchor_arrivals": 12_000}),
                       fingerprint=workload_fingerprint),
        gates=(
            Floor("results.workload.value", 1_000_000.0,
                  "generated + scheduled arrivals per wall second",
                  noisy=True),
            # flat means size-independent, so one absolute cap serves
            # quick and full sizes
            Cap(_detail("workload_memory", "target_rss_growth_kb"), 131_072,
                "the open-loop path must stay memory-flat", noisy=True),
            Cap(_detail("workload_memory", "stats_footprint_bytes"), 1_000_000,
                "streaming stats are bounded by their fixed histogram grid"),
            Exact("fingerprint"),
        ),
    ),
    "orchestration": Suite(
        run=_run_orchestration,
        gates=(
            RateFloor("results.orchestration.value", 0.25,
                      "the control loop got expensive"),
            Exact("fingerprint"),
        ),
    ),
}


# -- generic entry points --------------------------------------------------------


def run_suite(name: str, quick: bool = False, repeats: int = 1,
              jobs: int = 1) -> Dict[str, Any]:
    """One pass of suite ``name``: its ``BENCH_<name>.json`` payload."""
    results, sections = SUITES[name].run(quick, repeats, jobs)
    return {
        "suite": f"bench_{name}",
        "mode": "quick" if quick else "full",
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
    lines = [f"{name} (BENCH_{name}.json):"]
    for gate in SUITES[name].gates:
        text = str(gate) if isinstance(gate, Gate) else " ".join(gate.__doc__.split())
        lines.append(f"  {text}")
    return "\n".join(lines)


def _show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 100 else f"{value:.3f}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,d}"
    if isinstance(value, str) and len(value) == 64:
        return value[:16] + "…"
    return str(value)


def summarize(name: str, suite: Dict[str, Any]) -> str:
    """Per-benchmark rates and details plus the declared highlights."""
    workers = suite.get("jobs", 1)
    lines = [f"{suite['suite']} ({suite['mode']}, "
             f"{workers} worker{'s' if workers != 1 else ''})"]
    for result in suite["results"].values():
        lines.append(
            f"  {result['name']:15s} {result['value']:>14,.1f} {result['metric']}"
            f" ({result['wall_seconds']:.3f}s wall, "
            f"{result.get('cpu_seconds', 0.0):.3f}s cpu, "
            f"{result.get('peak_rss_kb', 0):,d} kB peak)"
        )
        lines += [f"    {key:36s} {_show(value)}"
                  for key, value in result.get("details", {}).items()]
    lines += [f"  {path:38s} {_show(_dig(suite, path))}"
              for path in SUITES[name].highlights]
    return "\n".join(lines)


def dump_suite(suite: Dict[str, Any], path: str) -> None:
    """Write a suite result as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(suite, handle, indent=2, sort_keys=True)
        handle.write("\n")
