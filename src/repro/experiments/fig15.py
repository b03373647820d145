"""Fig. 15 (extension): provisioning wall-clock at rollout scale.

The paper installs one application on one site at a time; its
provisioning pipeline is serial end to end — candidate probing costs
one ``site_info`` RPC per known site, dependencies install one after
another, and every site's download hits the origin host.  Pushing one
application to N sites therefore costs N full installations back to
back, with the origin's uplink as the shared bottleneck.

This experiment sweeps a fleet rollout (8-64 sites) of a Table 1
application and contrasts the serial origin-only baseline with the
scaled provisioning path of
:class:`repro.glare.provisioning.ProvisioningConfig`: bounded-fan-out
candidate probing with a TTL site-description cache, concurrent
dependency installs, a parallel ``rollout`` operation, and
replica-aware transfers (verified downloads become catalog replicas;
later fetches pull from the nearest live copy with per-site
singleflight).

Methodology
-----------
Both series run with link contention enabled
(``VOConfig.contention``): concurrent transfers crossing a link share
its bandwidth fair-share, so parallelism only wins wall-clock where
the bytes genuinely take different paths — exactly the effect replica
selection exploits by spreading load off the origin's uplink.

The measured window is one ``rollout`` RPC deploying the application
to every member site.  Per-site outcomes (status + the registered
deployment keys) are folded into an order-insensitive digest; baseline
and optimized runs must produce the *same* digest, proving the
parallel pipeline installs exactly what the serial one does — it only
changes what the rollout costs in simulated wall-clock and where the
bytes come from.  At every fleet size the optimized rollout must also
finish at least 3x faster than the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.apps import get_application, publish_applications
from repro.experiments.harness import Experiment, Results
from repro.experiments.report import (
    check_pairs_agree,
    format_table,
    pair_cells,
    pair_rows,
)
from repro.experiments.workload import records_digest
from repro.glare.provisioning import ProvisioningConfig
from repro.runner import WorkUnit
from repro.vo import ORIGIN, build_vo

GROUP_SIZE = 8
ROLLOUT_FANOUT = 8
APPLICATION = "Wien2k"


@dataclass
class Fig15Point:
    """One (fleet size, configuration) rollout measurement."""

    n_sites: int
    optimized: bool
    rollout_elapsed: float
    installed: int
    present: int
    failed: int
    messages: int
    origin_bytes_out: int
    replica_hits: int
    url_singleflight_joined: int
    probe_cache_hits: int
    result_digest: str


def run_fig15_point(n_sites: int, optimized: bool, seed: int = 29) -> Fig15Point:
    """One sweep point: roll the application out to ``n_sites`` sites."""
    provisioning = (
        ProvisioningConfig.all_on(rollout_fanout=ROLLOUT_FANOUT)
        if optimized
        else ProvisioningConfig()
    )
    vo = build_vo(
        n_sites=n_sites,
        seed=seed,
        group_size=GROUP_SIZE,
        monitors=False,
        lifecycle=False,
        provisioning=provisioning,
        contention=True,
    )
    publish_applications(vo, [APPLICATION])
    vo.form_overlay()
    spec = get_application(APPLICATION)
    initiator = vo.community_site
    vo.run_process(vo.client_call(
        initiator, "register_type", payload={"xml": spec.type_xml}
    ))

    origin_bytes_before = vo.network.node(ORIGIN).bytes_out
    messages_before = vo.network.total_messages
    started = vo.sim.now
    result = vo.run_process(vo.client_call(
        initiator, "rollout", payload={"type_xml": spec.type_xml}
    ))
    elapsed = vo.sim.now - started

    counts = {"installed": 0, "present": 0, "failed": 0}
    records: List[str] = []
    for leg in result["results"]:
        counts[leg["status"]] = counts.get(leg["status"], 0) + 1
        keys = sorted(str(w["epr"]["key"]) for w in leg["deployments"])
        records.append(f"{leg['site']}|{leg['status']}|{','.join(keys)}")
    replica_hits = sum(stack.gridftp.replica_hits for stack in vo.stacks.values())
    singleflight_joined = sum(stack.gridftp.url_singleflight_joined
                              for stack in vo.stacks.values())
    manager = vo.rdm(initiator).deployment_manager
    return Fig15Point(
        n_sites=n_sites,
        optimized=optimized,
        rollout_elapsed=elapsed,
        installed=counts["installed"],
        present=counts["present"],
        failed=counts["failed"],
        messages=vo.network.total_messages - messages_before,
        origin_bytes_out=vo.network.node(ORIGIN).bytes_out - origin_bytes_before,
        replica_hits=replica_hits,
        url_singleflight_joined=singleflight_joined,
        probe_cache_hits=manager.probe_cache_hits,
        result_digest=records_digest(records),
    )


def _pairs(points: Sequence[Fig15Point]) -> Dict[int, Dict[bool, Fig15Point]]:
    return pair_cells(points, cell=lambda p: p.n_sites,
                      optimized=lambda p: p.optimized)


def format_fig15(points: List[Fig15Point]) -> str:
    def row(point: Fig15Point) -> List:
        return [
            point.n_sites,
            "parallel+replica" if point.optimized else "serial origin-only",
            point.installed,
            round(point.rollout_elapsed, 1),
            round(point.origin_bytes_out / 1e6, 1),
            point.replica_hits,
        ]

    return format_table(
        ["sites", "series", "installed", "rollout (sim s)",
         "origin out (MB)", "replica hits"],
        pair_rows(_pairs(points), row, metric=lambda p: p.rollout_elapsed,
                  label="speedup"),
        title="Fig. 15 — fleet rollout wall-clock vs provisioning path",
    )


def _units(sizes: Sequence[int]) -> List[WorkUnit]:
    """Serial baseline + parallel/replica pair per fleet size."""
    return [
        WorkUnit(f"fig15:{n_sites}:{'opt' if optimized else 'base'}",
                 "repro.experiments.fig15:run_fig15_point",
                 {"n_sites": n_sites, "optimized": optimized})
        for n_sites in sizes
        for optimized in (False, True)
    ]


def _check(results: Results) -> None:
    pairs = _pairs(list(results.values()))
    check_pairs_agree(pairs, "fig15")
    for n_sites, pair in pairs.items():
        if len(pair) == 2:
            speedup = pair[False].rollout_elapsed / pair[True].rollout_elapsed
            assert speedup >= 3.0, (
                f"fig15: optimized rollout under 3x faster than serial: "
                f"{speedup:.2f}x at {n_sites} sites")


EXPERIMENT = Experiment(
    name="fig15",
    summary="bulk rollout time, serial origin-only vs parallel + "
            "replica-aware transfers",
    quick=(8, 16),
    full=(8, 16, 32, 64),
    units=_units,
    check=_check,
    render=lambda results: format_fig15(list(results.values())),
)
