"""Fig. 17 (extension): sharded registry storage at 10^6 registered types.

The paper's hash-table-vs-XPath comparison (Figs. 10/11) stops at a few
hundred resources, and both GLARE registries historically held the
entire type namespace in one flat in-process dict.  This experiment
proves the two claims of the sharded storage layer
(:mod:`repro.glare.storage`):

* **Storage sweep** — per-lookup work on the registry backend stays
  flat (within 1.3x of the 10^3 point) from 10^3 to 10^6 registered
  types under :class:`~repro.glare.storage.ShardedBackend`, with
  per-shard resident counts bounded by ~(N/shards)·imbalance and
  lookup-result digests byte-identical to the flat-dict baseline at
  every point.  Flatness is gated on an exact count — Python calls per
  lookup — not on the clock: the point runs beside busy sibling
  workers, where a wall-clock ratio measures the scheduler.
* **Routing sweep** — per-lookup *message* cost in a live VO stays flat
  as the super-peer group count grows 4 → 64 and as the registered-type
  population grows 10^3 → 10^5, because the consistent-hash shard
  directory (one ``shard_lookup`` RPC to the type's owner) replaces the
  all-super-peers broadcast; the broadcast baseline grows linearly with
  group count on the identical workload, and both series must return
  identical result digests.

Methodology notes
-----------------
The ``ns/lookup`` column is information only: a fixed 256-key sample
(stride over the key space), warmed before measurement, best-of-9
passes of 32 repetitions — the sample's cache working set is what a
hot registry serves.  The backend sweep
stores compact ``__slots__`` records rather than full WS-Resources so
the 10^6 point fits in memory; the backend treats values opaquely, so
per-lookup cost is unaffected.  The routing sweep bulk-loads filler
types directly into the serving registries (no per-type RPC) *before*
the overlay forms, so directory hand-off happens through the real
``digest_note``/``shard_note`` protocol; registration traffic is
reported as setup, separate from the measured workload window.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence, Tuple

from repro.experiments.harness import Experiment, Results, result_digest
from repro.experiments.report import (
    check_pairs_agree,
    format_table,
    pair_cells,
    pair_rows,
)
from repro.experiments.workload import (
    active_deployment,
    placed,
    plain_type_xml,
    records_digest,
    resolve,
    tier_counts,
)
from repro.glare.model import ActivityType
from repro.glare.storage import DictBackend, StorageConfig
from repro.runner import WorkUnit
from repro.vo import build_vo

GROUP_SIZE = 8
#: flatness criterion: per-lookup cost within this factor of the
#: smallest sweep point (Python calls for the storage sweep, messages
#: for the routing sweep)
FLAT_THRESHOLD = 1.3
#: per-shard bound: max shard ≤ (N/shards) * IMBALANCE_BOUND once a
#: shard holds enough keys for the ring statistics to converge
IMBALANCE_BOUND = 1.5


class _TypeRecord:
    """Compact stand-in for a registered type's WS-Resource.

    The backend contract treats values opaquely (only ``lut`` peeks at
    ``last_update_time``), so the storage sweep can hold 10^6 of these
    where real WS-Resources with parsed XML documents would not fit.
    """

    __slots__ = ("key", "last_update_time")

    def __init__(self, key: str, last_update_time: float) -> None:
        self.key = key
        self.last_update_time = last_update_time


def _type_key(index: int) -> str:
    return f"activity-type-{index:07d}.domain{index % 97}"


def _load_backend(backend, n_types: int) -> float:
    started = time.perf_counter()
    for index in range(n_types):
        key = _type_key(index)
        backend.put(key, _TypeRecord(key, float(index % 1000)))
    return time.perf_counter() - started


def _lookup_sample(n_types: int, sample_size: int = 256) -> List[str]:
    stride = max(1, n_types // sample_size)
    return [_type_key((index * stride) % n_types) for index in range(sample_size)]


def _time_lookups(backend, sample: List[str], passes: int = 9,
                  reps: int = 32) -> float:
    """Warm per-lookup seconds: best-of-``passes`` over the sample."""
    get = backend.get
    for _ in range(3):  # warmup: string-hash caching, page touch
        for key in sample:
            get(key)
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        for _ in range(reps):
            for key in sample:
                get(key)
        best = min(best, time.perf_counter() - started)
    return best / (len(sample) * reps)


def _calls_per_lookup(backend, sample: List[str]) -> float:
    """Python calls one ``get`` costs: exact, the same on every machine."""
    from repro.perf import count_pycalls

    def lookups() -> None:
        get = backend.get
        for key in sample:
            get(key)

    calls, _ = count_pycalls(lookups)
    return (calls - 1) / len(sample)  # less the call of lookups() itself


def _lookup_digest(backend, sample: List[str]) -> str:
    lines = [f"{key}={backend.lut(key)!r}" for key in sample]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Fig17StoragePoint:
    """One (type count, backend) measurement of the storage sweep."""

    n_types: int
    backend: str  # "dict" or "sharded/<shards>"
    shards: int  # 0 for the dict baseline
    per_lookup_ns: float
    lookup_digest: str
    load_seconds: float
    max_shard: int = 0
    mean_shard: float = 0.0
    imbalance: float = 0.0
    digest_matches_dict: bool = True
    calls_per_lookup: float = 0.0


def run_storage_point(
    n_types: int, shard_counts: Sequence[int] = (4, 16, 64)
) -> List[Fig17StoragePoint]:
    """Dict baseline + every sharded variant at one type count.

    All variants run in one process so the sharded-vs-dict digest
    equality is asserted where both digests exist.  Raises
    ``AssertionError`` on any digest mismatch or per-shard bound
    violation — a sweep point that lies fails loudly.
    """
    sample = _lookup_sample(n_types)
    points: List[Fig17StoragePoint] = []

    dict_backend = DictBackend()
    load = _load_backend(dict_backend, n_types)
    dict_digest = _lookup_digest(dict_backend, sample)
    points.append(Fig17StoragePoint(
        n_types=n_types, backend="dict", shards=0,
        per_lookup_ns=_time_lookups(dict_backend, sample) * 1e9,
        lookup_digest=dict_digest, load_seconds=load,
    ))
    del dict_backend

    for shards in shard_counts:
        backend = StorageConfig.sharded(shards=shards).make_backend()
        load = _load_backend(backend, n_types)
        digest = _lookup_digest(backend, sample)
        sizes = backend.shard_sizes()
        mean = n_types / shards
        imbalance = backend.imbalance()
        point = Fig17StoragePoint(
            n_types=n_types, backend=f"sharded/{shards}", shards=shards,
            per_lookup_ns=_time_lookups(backend, sample) * 1e9,
            lookup_digest=digest, load_seconds=load,
            max_shard=max(sizes.values()), mean_shard=mean,
            imbalance=imbalance, digest_matches_dict=(digest == dict_digest),
            calls_per_lookup=_calls_per_lookup(backend, sample),
        )
        assert point.digest_matches_dict, (
            f"sharded/{shards} lookup digest diverged from dict at "
            f"N={n_types}"
        )
        if mean >= 500:  # below this the per-shard statistics are noise
            assert point.max_shard <= mean * IMBALANCE_BOUND, (
                f"shard bound violated at N={n_types} shards={shards}: "
                f"max {point.max_shard} > {mean:.0f} * {IMBALANCE_BOUND}"
            )
        points.append(point)
        del backend
    return points


@dataclass
class Fig17RoutingPoint:
    """One (groups, type count, series) measurement of the VO sweep."""

    n_groups: int
    n_sites: int
    n_types: int
    routed: bool
    lookups: int
    workload_messages: int
    setup_messages: int
    messages_per_lookup: float
    result_digest: str
    shard_route_hits: int = 0
    shard_fallbacks: int = 0
    shard_handoffs: int = 0
    tiers: Dict[str, int] = field(default_factory=dict)


def run_routing_point(
    n_groups: int,
    n_types: int,
    routed: bool,
    n_lookup_types: int = 12,
    rounds: int = 2,
    n_clients: int = 3,
    seed: int = 23,
) -> Fig17RoutingPoint:
    """One VO measurement: ``n_groups`` super-peer groups of
    ``GROUP_SIZE`` sites serving ``n_types`` registered types.

    The routed series runs the full tentpole configuration (sharded
    resource homes + shard directory); the baseline series runs the
    classic broadcast escalation.  Both resolve the identical lookup
    sequence; their result digests must match.
    """
    n_sites = n_groups * GROUP_SIZE
    storage = (
        StorageConfig.sharded(shards=4, routing=True) if routed
        else StorageConfig()
    )
    vo = build_vo(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=False,  # measure protocol cost on every lookup
        group_size=GROUP_SIZE,
        monitors=False,
        lifecycle=False,
        storage=storage,
    )
    names = vo.site_names

    # Bulk-load the type population directly into the back-half serving
    # registries (the front half hosts clients).  This happens before
    # the overlay forms, so claims reach super-peer digests and shard
    # owners through the real bulk-note hand-off, not 10^5 RPCs.
    serving = names[n_sites // 2:]
    lookup_types: List[Tuple[str, str]] = []
    for index in range(n_types):
        home = serving[index % len(serving)]
        atr = vo.stacks[home].atr
        if index < n_lookup_types:
            name = f"LookupType{index:02d}"
            atr.add_local_type(ActivityType.from_xml(
                plain_type_xml(name, "scale")))
            vo.stacks[home].adr.add_local_deployment(
                placed(vo, active_deployment(name, home)))
            lookup_types.append((name, home))
        else:
            atr.add_local_type(ActivityType.from_xml(
                plain_type_xml(f"FillerType{index:07d}", "scale")))

    # Failure-detector probes are background traffic proportional to
    # the site count (fig16's subject, not ours): at 512 sites the
    # periodic pings alone would swamp the flat per-lookup message
    # assertion.  Disabled identically in both series — probes never
    # affect results, only the message count.  Must precede the
    # election: probe loops start when the first view lands.
    for site in names:
        vo.rdm(site).overlay.probe_interval = 1e9

    vo.form_overlay()
    # Let the directory hand-off land, including the bounded shard-note
    # retries that cover owners whose view applied after the first
    # announcement (SHARD_NOTE_RETRY_DELAY x SHARD_NOTE_RETRY_LIMIT).
    vo.sim.run(until=vo.sim.now + 16.0)
    setup_messages = vo.network.total_messages

    records: List[str] = []

    def record(site: str, type_name: str, attempt: str) -> Generator:
        outcome = yield from resolve(vo, site, type_name)
        records.append(f"{site}|{type_name}|{attempt}|{outcome}")

    client_sites = [names[(i * (n_sites // 2)) // n_clients]
                    for i in range(n_clients)]
    for round_no in range(rounds):
        for client in client_sites:
            for type_name, _ in lookup_types:
                vo.run_process(record(client, type_name, f"r{round_no}"))

    workload_messages = vo.network.total_messages - setup_messages
    lookups = len(records)
    planes = [vo.rdm(s).directory for s in names] if routed else []
    return Fig17RoutingPoint(
        n_groups=n_groups,
        n_sites=n_sites,
        n_types=n_types,
        routed=routed,
        lookups=lookups,
        workload_messages=workload_messages,
        setup_messages=setup_messages,
        messages_per_lookup=(
            workload_messages / lookups if lookups else float("nan")
        ),
        result_digest=records_digest(records),
        shard_route_hits=sum(p.shard_route_hits for p in planes),
        shard_fallbacks=sum(p.shard_fallbacks for p in planes),
        shard_handoffs=sum(p.shard_handoffs for p in planes),
        tiers=tier_counts(vo, client_sites),
    )


def _storage(results: Results) -> List[Fig17StoragePoint]:
    return [point for name, points in results.items()
            if name.startswith("fig17:storage:") for point in points]


def _routing(results: Results) -> List[Fig17RoutingPoint]:
    return [point for name, point in results.items()
            if name.startswith("fig17:routing:")]


def _pairs(points: Sequence[Fig17RoutingPoint]) -> Dict[tuple, Dict[bool, Fig17RoutingPoint]]:
    return pair_cells(points, cell=lambda p: (p.n_groups, p.n_types),
                      optimized=lambda p: p.routed)


def _check(results: Results) -> None:
    """The acceptance assertions (see module docstring)."""
    # per-lookup work: every sharded point within FLAT_THRESHOLD of the
    # same shard count's smallest-N point, in exact Python calls
    by_shards: Dict[int, List[Fig17StoragePoint]] = {}
    for point in _storage(results):
        if point.shards:
            by_shards.setdefault(point.shards, []).append(point)
    for shards, points in by_shards.items():
        base = min(points, key=lambda p: p.n_types)
        for point in points:
            ratio = point.calls_per_lookup / base.calls_per_lookup
            assert ratio <= FLAT_THRESHOLD, (
                f"per-lookup work not flat: sharded/{shards} at "
                f"N={point.n_types} makes {point.calls_per_lookup:.1f} "
                f"Python calls per lookup, {ratio:.2f}x the "
                f"N={base.n_types} point (> {FLAT_THRESHOLD}x)"
            )
    routing = _routing(results)
    check_pairs_agree(_pairs(routing), "fig17 routing")
    # per-lookup messages flat across the routed series
    routed = [p for p in routing if p.routed]
    if routed:
        base = min(routed, key=lambda p: (p.n_groups, p.n_types))
        for point in routed:
            ratio = point.messages_per_lookup / base.messages_per_lookup
            assert ratio <= FLAT_THRESHOLD, (
                f"per-lookup messages not flat: {point.n_groups} groups /"
                f" {point.n_types} types is {ratio:.2f}x the base point"
                f" (> {FLAT_THRESHOLD}x)"
            )


def _digest(result) -> str:
    """Only deterministic fields — never timings: a routing point whole
    (it carries none), a storage point's lookup digest and shard shape."""
    if isinstance(result, Fig17RoutingPoint):
        return result_digest(result)
    return hashlib.sha256("\n".join(
        f"{p.backend}|{p.lookup_digest}|{p.max_shard}" for p in result
    ).encode()).hexdigest()


def format_fig17(storage: Sequence[Fig17StoragePoint],
                 routing: Sequence[Fig17RoutingPoint]) -> str:
    storage_rows = []
    for point in storage:
        storage_rows.append([
            point.n_types,
            point.backend,
            round(point.per_lookup_ns),
            point.max_shard if point.shards else "",
            f"{point.imbalance:.2f}" if point.shards else "",
            "==" if point.digest_matches_dict else "!!",
        ])
    text = format_table(
        ["types", "backend", "ns/lookup", "max shard", "imbalance",
         "digest"],
        storage_rows,
        title="Fig. 17a — registry backend lookup cost vs namespace size",
    )

    def row(point: Fig17RoutingPoint) -> List:
        return [
            point.n_groups,
            point.n_types,
            "routed" if point.routed else "broadcast",
            point.lookups,
            round(point.messages_per_lookup, 1),
            point.shard_route_hits if point.routed else "",
            point.shard_fallbacks if point.routed else "",
        ]

    text += "\n\n" + format_table(
        ["groups", "types", "series", "lookups", "msgs/lookup",
         "route hits", "fallbacks"],
        pair_rows(_pairs(routing), row,
                  metric=lambda p: p.messages_per_lookup),
        title="Fig. 17b — per-lookup message cost vs super-peer groups",
    )
    return text


def _units(grid: Tuple[Sequence[int], Sequence[Tuple[int, int]]]) -> List[WorkUnit]:
    """One unit per (groups, types, series) routing cell — every pair
    runs routed + broadcast — and one per storage size (all of a size's
    backends in one process, where their digests can be compared)."""
    storage_sizes, routing_grid = grid
    units = [
        WorkUnit(f"fig17:routing:{n_groups}g:{n_types}:"
                 f"{'routed' if routed else 'bcast'}",
                 "repro.experiments.fig17:run_routing_point",
                 {"n_groups": n_groups, "n_types": n_types, "routed": routed})
        for n_groups, n_types in routing_grid
        for routed in (False, True)
    ]
    units += [
        WorkUnit(f"fig17:storage:{n_types}",
                 "repro.experiments.fig17:run_storage_point",
                 {"n_types": n_types})
        for n_types in storage_sizes
    ]
    return units


# quick sweeps the storage backends to 10^5 types; the full run adds
# the 10^6 point and the 16/64-group routing cells
EXPERIMENT = Experiment(
    name="fig17",
    summary="registry lookup cost and routing messages, flat dict vs "
            "consistent-hash shards",
    quick=((1_000, 10_000, 100_000),
           ((4, 1_000), (8, 1_000), (4, 10_000))),
    full=((1_000, 10_000, 100_000, 1_000_000),
          ((4, 1_000), (8, 1_000), (16, 1_000), (64, 1_000),
           (4, 10_000), (4, 100_000))),
    units=_units,
    digest=_digest,
    check=_check,
    render=lambda results: format_fig17(_storage(results), _routing(results)),
)
