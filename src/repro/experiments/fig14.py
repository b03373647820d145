"""Fig. 14 (extension): resolution-path message cost at VO scale.

The paper's evaluation stops at seven sites; its resolution walk
(local → group peers → super-peer → *every other* super-peer, each of
which fans out to *its* members) floods the VO on a cache miss, so
messages per resolution grow linearly with VO size.  This experiment
sweeps the VO size (16/64/128/256 sites) and contrasts the broadcast
baseline with the scaled resolution path of
:class:`repro.glare.resolution.ResolutionConfig`: singleflight
coalescing, super-peer content digests with negative caching, batched
cache revalidation, and jittered monitors.

Methodology
-----------
Registry caching is *disabled* for the workload phases so every
request exercises the full protocol (the cache's own effect is Fig. 12's
subject); both series therefore measure pure protocol cost on
identical request sequences.  Three phases per run:

* **warm** — clients at distinct sites repeatedly resolve types homed
  at other sites (digests converge after the first full broadcast);
* **missing** — clients repeatedly resolve types that exist nowhere
  (exercising the negative cache);
* **burst** — concurrent clients at one site resolve the same type at
  once (exercising singleflight).

Every resolution's result set (the deployment keys returned, or the
type-not-found outcome) is folded into an order-insensitive digest;
baseline and optimized runs must produce the *same* digest, proving
the optimizations never change what a client sees — only what it
costs.  Digest-note traffic (setup) is reported separately from the
workload window so the per-resolution figure stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.experiments.harness import Experiment, Results
from repro.experiments.report import (
    check_pairs_agree,
    format_table,
    pair_cells,
    pair_rows,
)
from repro.experiments.workload import (
    records_digest,
    register_served_type,
    resolve,
    tier_counts,
)
from repro.glare.resolution import ResolutionConfig
from repro.runner import WorkUnit
from repro.vo import build_vo

GROUP_SIZE = 8


@dataclass
class Fig14Point:
    """One (VO size, configuration) measurement.

    ``sampled`` marks a baseline measured on a reduced deterministic
    workload sample with ``workload_messages`` extrapolated to the full
    workload's resolution count (see :func:`run_fig14_sampled_point`);
    ``messages_per_resolution`` is always directly measured.
    """

    n_sites: int
    optimized: bool
    resolutions: int
    workload_messages: int
    setup_messages: int
    messages_per_resolution: float
    p95_response_ms: float
    mean_response_ms: float
    tiers: Dict[str, int] = field(default_factory=dict)
    result_digest: str = ""
    digest_stats: Dict[str, int] = field(default_factory=dict)
    sampled: bool = False
    extrapolation_factor: float = 1.0


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _populate(vo, type_homes: List[Tuple[str, str]]) -> None:
    """Register each type + one deployment at its home site."""
    for type_name, home in type_homes:
        register_served_type(vo, home, type_name, "scale")


def run_fig14_point(
    n_sites: int,
    optimized: bool,
    n_types: int = 6,
    n_clients: int = 6,
    warm_rounds: int = 3,
    missing_rounds: int = 2,
    burst_clients: int = 6,
    seed: int = 21,
) -> Fig14Point:
    """One sweep point: ``n_sites`` sites, optimizations on or off."""
    resolution = ResolutionConfig.all_on() if optimized else ResolutionConfig()
    vo = build_vo(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=False,  # isolate protocol cost (see module docstring)
        group_size=GROUP_SIZE,
        monitors=False,
        lifecycle=False,
        resolution=resolution,
    )
    vo.form_overlay()
    names = vo.site_names

    # Types homed in the back half of the site list, clients in the
    # front half: most resolutions must leave the requester's group.
    type_homes = [
        (f"ScaleType{i:02d}", names[n_sites // 2 + (i * (n_sites // 2)) // n_types])
        for i in range(n_types)
    ]
    client_sites = [names[(i * (n_sites // 2)) // n_clients] for i in range(n_clients)]
    missing_types = ["NoSuchTypeA", "NoSuchTypeB"]

    _populate(vo, type_homes)
    # let detached digest-note traffic land before the measured window
    vo.sim.run(until=vo.sim.now + 5.0)
    setup_messages = vo.network.total_messages

    latencies: List[float] = []
    records: List[str] = []

    def record(site: str, type_name: str, attempt: str) -> Generator:
        started = vo.sim.now
        outcome = yield from resolve(vo, site, type_name)
        latencies.append(vo.sim.now - started)
        records.append(f"{site}|{type_name}|{attempt}|{outcome}")

    def warm_client(index: int) -> Generator:
        site = client_sites[index]
        for round_no in range(warm_rounds):
            for offset in range(n_types):
                type_name = type_homes[(index + offset) % n_types][0]
                yield from record(site, type_name, f"warm{round_no}")
                yield vo.sim.timeout(0.2)

    def missing_client(index: int) -> Generator:
        site = client_sites[index]
        for round_no in range(missing_rounds):
            for type_name in missing_types:
                yield from record(site, type_name, f"missing{round_no}")
                yield vo.sim.timeout(0.2)

    def burst_client(index: int) -> Generator:
        # all at the same site, same type, same instant: the
        # singleflight shape
        yield from record(client_sites[0], type_homes[0][0], f"burst{index}")

    # phase 1+2: warm + missing, concurrent across client sites
    procs = [vo.sim.process(warm_client(i), name=f"warm-{i}")
             for i in range(n_clients)]
    procs += [vo.sim.process(missing_client(i), name=f"missing-{i}")
              for i in range(min(3, n_clients))]
    vo.sim.run(until=vo.sim.all_of(procs))
    # phase 3: burst
    procs = [vo.sim.process(burst_client(i), name=f"burst-{i}")
             for i in range(burst_clients)]
    vo.sim.run(until=vo.sim.all_of(procs))

    workload_messages = vo.network.total_messages - setup_messages
    resolutions = len(records)

    digest_stats: Dict[str, int] = {}
    if optimized:
        joined = sum(vo.rdm(s).request_manager.singleflight_joined
                     for s in set(client_sites))
        digest_stats["singleflight_joined"] = joined
        for name in vo.site_names:
            digest = vo.rdm(name).directory.digest
            digest_stats["group_hits"] = (
                digest_stats.get("group_hits", 0) + digest.group_hits)
            digest_stats["member_skips"] = (
                digest_stats.get("member_skips", 0) + digest.member_skips)
            digest_stats["negative_hits"] = (
                digest_stats.get("negative_hits", 0) + digest.negative_hits)

    return Fig14Point(
        n_sites=n_sites,
        optimized=optimized,
        resolutions=resolutions,
        workload_messages=workload_messages,
        setup_messages=setup_messages,
        messages_per_resolution=(
            workload_messages / resolutions if resolutions else float("nan")
        ),
        p95_response_ms=_percentile(latencies, 0.95) * 1000.0,
        mean_response_ms=(
            sum(latencies) / len(latencies) * 1000.0 if latencies else float("nan")
        ),
        tiers=tier_counts(vo, client_sites),
        result_digest=records_digest(records),
        digest_stats=digest_stats,
    )


#: sizes at or above this use the sampled broadcast baseline — the
#: exact baseline's aggregate message count grows ~O(n^2) with VO size
#: (O(n) per resolution on a workload held constant, times the setup
#: storm), which is unaffordable to simulate exactly past ~1024 sites
SAMPLED_BASELINE_THRESHOLD = 4096

#: the standard workload's resolution count under the default
#: run_fig14_point parameters (6 clients x 3 warm rounds x 6 types,
#: 3 missing clients x 2 rounds x 2 types, 6 burst clients) — the
#: target a sampled baseline extrapolates its message total to
FULL_WORKLOAD_RESOLUTIONS = 6 * 3 * 6 + 3 * 2 * 2 + 6


def run_fig14_sampled_point(n_sites: int, seed: int = 21) -> Fig14Point:
    """Broadcast baseline at extreme scale, on a workload *sample*.

    Runs the exact broadcast protocol on a deterministic reduced
    workload (2 client sites, 1 warm round, 1 missing round, 2 burst
    clients — 18 resolutions instead of 126) and extrapolates the full
    workload's message total as measured messages-per-resolution times
    :data:`FULL_WORKLOAD_RESOLUTIONS`.  Per-resolution cost — the
    figure the sweep plots — is *measured*, not extrapolated: every
    broadcast resolution floods the same O(n_sites) fan-out regardless
    of how many follow it.  What the sample gives up is the
    baseline-vs-optimized result-digest equality check (the workloads
    differ), so :func:`format_fig14` reports the pair ratio without a
    digest verdict; EXPERIMENTS.md records this deviation.
    """
    point = run_fig14_point(
        n_sites,
        optimized=False,
        n_clients=2,
        warm_rounds=1,
        missing_rounds=1,
        burst_clients=2,
        seed=seed,
    )
    factor = FULL_WORKLOAD_RESOLUTIONS / point.resolutions
    point.sampled = True
    point.extrapolation_factor = factor
    point.workload_messages = int(round(point.workload_messages * factor))
    point.resolutions = FULL_WORKLOAD_RESOLUTIONS
    return point


# -- batched revalidation (the Cache Refresher half of the story) ----------


@dataclass
class RevalidationPoint:
    """Messages one Cache Refresher cycle costs, per mode."""

    cached_entries: int
    distinct_sources: int
    per_entry_messages: int
    batched_messages: int


def run_revalidation_point(
    n_sites: int = 6, n_types: int = 12, seed: int = 33
) -> RevalidationPoint:
    """Revalidation traffic for one refresher tick, both modes.

    A VO is populated so one site caches ``n_types`` entries drawn from
    every other site, then a single Cache Refresher tick runs with
    per-entry ``get_lut`` RPCs and again with ``get_lut_batch``.  The
    end state is identical; only the message count differs.
    """
    from repro.glare.monitors import CacheRefresher

    counts = {}
    for batched in (False, True):
        resolution = ResolutionConfig(scaled=batched)
        vo = build_vo(
            n_sites=n_sites, seed=seed, cache_enabled=True,
            group_size=n_sites + 1, monitors=False, lifecycle=False,
            resolution=resolution,
        )
        vo.form_overlay()
        names = vo.site_names
        observer = names[0]
        type_homes = [
            (f"RevalType{i:02d}", names[1 + i % (n_sites - 1)])
            for i in range(n_types)
        ]
        _populate(vo, type_homes)
        # the observer resolves everything once, caching every entry
        for type_name, _ in type_homes:
            vo.run_process(vo.client_call(
                observer, "get_deployments",
                payload={"type": type_name, "auto_deploy": False},
            ))
        refresher = CacheRefresher(vo.rdm(observer))
        before = vo.network.total_messages
        vo.run_process(refresher.tick())
        counts[batched] = vo.network.total_messages - before
        entries = (len(vo.rdm(observer).atr.cache_sources)
                   + len(vo.rdm(observer).adr.cache_sources))
        sources = len({
            (s.site, s.service)
            for s in list(vo.rdm(observer).atr.cache_sources.values())
            + list(vo.rdm(observer).adr.cache_sources.values())
        })
    return RevalidationPoint(
        cached_entries=entries,
        distinct_sources=sources,
        per_entry_messages=counts[False],
        batched_messages=counts[True],
    )


def format_fig14(points: List[Fig14Point],
                 revalidation: Optional[RevalidationPoint] = None) -> str:
    def row(point: Fig14Point) -> List:
        series = "optimized" if point.optimized else "baseline"
        return [
            point.n_sites,
            series + (" (sampled)" if point.sampled else ""),
            point.resolutions,
            round(point.messages_per_resolution, 1),
            round(point.p95_response_ms, 1),
            f"{point.tiers.get('group', 0)}/{point.tiers.get('super-peer', 0)}",
        ]

    def verdict(base: Fig14Point, opt: Fig14Point) -> Optional[str]:
        # sampled baseline ran a reduced workload: no digest verdict
        # is possible (see run_fig14_sampled_point)
        return "n/a, sampled" if base.sampled else None

    text = format_table(
        ["sites", "series", "resolutions", "msgs/resolution",
         "p95 (ms)", "group/SP tier"],
        pair_rows(_pairs(points), row,
                  metric=lambda p: p.messages_per_resolution, verdict=verdict),
        title="Fig. 14 — resolution messages vs VO size",
    )
    if revalidation is not None:
        text += (
            f"\n\nCache revalidation ({revalidation.cached_entries} cached "
            f"entries from {revalidation.distinct_sources} sources): "
            f"{revalidation.per_entry_messages} msgs/cycle per-entry vs "
            f"{revalidation.batched_messages} batched"
        )
    return text


def _pairs(points: Sequence[Fig14Point]) -> Dict[int, Dict[bool, Fig14Point]]:
    return pair_cells(points, cell=lambda p: p.n_sites,
                      optimized=lambda p: p.optimized)


REVALIDATION = "fig14:revalidation"


def _units(sizes: Sequence[int]) -> List[WorkUnit]:
    """Baseline + optimized pair per VO size, plus the refresher point.

    At :data:`SAMPLED_BASELINE_THRESHOLD` sites and beyond the baseline
    switches to :func:`run_fig14_sampled_point`; the optimized series
    always runs the full workload.
    """
    units = []
    for n_sites in sizes:
        if n_sites >= SAMPLED_BASELINE_THRESHOLD:
            units.append(WorkUnit(
                f"fig14:{n_sites}:base-sampled",
                "repro.experiments.fig14:run_fig14_sampled_point",
                {"n_sites": n_sites},
            ))
        else:
            units.append(WorkUnit(
                f"fig14:{n_sites}:base",
                "repro.experiments.fig14:run_fig14_point",
                {"n_sites": n_sites, "optimized": False},
            ))
        units.append(WorkUnit(
            f"fig14:{n_sites}:opt",
            "repro.experiments.fig14:run_fig14_point",
            {"n_sites": n_sites, "optimized": True},
        ))
    units.append(WorkUnit(
        REVALIDATION, "repro.experiments.fig14:run_revalidation_point"))
    return units


def _sweep(results: Results) -> List[Fig14Point]:
    return [point for name, point in results.items() if name != REVALIDATION]


def _check(results: Results) -> None:
    exact = [point for point in _sweep(results) if not point.sampled]
    check_pairs_agree(_pairs(exact), "fig14")


# The 1024-site point is the scale ceiling for the exact broadcast
# baseline: gated out of --quick (it alone costs ~10x the 256-site
# point).  --scale adds the 4096-site point, whose baseline is
# *sampled* (measured on a site subset, O(n^2) extrapolated) — see
# EXPERIMENTS.md for the deviation.
_FULL_SIZES = (16, 64, 128, 256, 1024)

EXPERIMENT = Experiment(
    name="fig14",
    summary="resolution messages vs VO size, broadcast vs scaled walk",
    quick=(16, 64),
    full=_FULL_SIZES,
    scale=_FULL_SIZES + (4096,),
    units=_units,
    check=_check,
    render=lambda results: format_fig14(_sweep(results),
                                        revalidation=results[REVALIDATION]),
)
