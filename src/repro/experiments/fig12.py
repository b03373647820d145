"""Fig. 12: deployment-list response time — cache and site-count scaling.

"Fig. 12 shows response time per request for a list of deployments
associated with an activity type.  Deployment entries are equally
distributed on all involved sites.  It is observed that there is a
significant improvement in performance by increasing number of sites
or by enabling the cache."

Reproduction: ``total_deployments`` entries of one concrete type are
spread evenly over K registry sites (K ∈ {1, 3, 7}); several
closed-loop clients at separate client sites ask their *local* GLARE
service for the full deployment list.  Without a cache every request
fans out to the registry sites (fewer entries per site and load spread
→ faster as K grows); with the cache enabled, after the first gather
the answer is local, which is the fastest series of all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_table
from repro.experiments.workload import placed, spawn_clients
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.runner import WorkUnit
from repro.vo import build_vo

TYPE_NAME = "SyntheticSolver"
TYPE_XML = f"""
<ActivityTypeEntry name="{TYPE_NAME}" kind="concrete">
  <Domain>synthetic</Domain>
  <Function name="solve"><Input>problem</Input><Output>solution</Output></Function>
</ActivityTypeEntry>
"""

HORIZON = 60.0
WARMUP = 10.0


@dataclass
class Fig12Point:
    sites: int
    cache: bool
    clients: int
    total_deployments: int
    mean_response_ms: float
    completed: int


def _populate(vo, registry_sites: List[str], total_deployments: int) -> None:
    """Register the type + equally distributed deployments."""
    for site in registry_sites:
        vo.run_process(vo.client_call(
            site, "register_type", payload={"xml": TYPE_XML}
        ))
    per_site = total_deployments // len(registry_sites)
    remainder = total_deployments % len(registry_sites)
    counter = 0
    for index, site in enumerate(registry_sites):
        count = per_site + (1 if index < remainder else 0)
        for _ in range(count):
            deployment = ActivityDeployment(
                name=f"solver{counter:03d}",
                type_name=TYPE_NAME,
                kind=DeploymentKind.EXECUTABLE,
                site=site,
                path=f"/opt/deployments/solver/bin/solver{counter:03d}",
                home="/opt/deployments/solver",
                status=DeploymentStatus.ACTIVE,
            )
            counter += 1
            vo.run_process(vo.client_call(
                site, "register_deployment",
                payload={"xml": placed(vo, deployment).wire_xml()},
            ))


def run_fig12_point(
    registry_sites: int,
    cache: bool,
    clients: int = 6,
    total_deployments: int = 42,
    client_sites: int = 3,
    seed: int = 9,
) -> Fig12Point:
    """One series point: K registry sites, cache on/off."""
    n_sites = registry_sites + client_sites
    vo = build_vo(
        n_sites=n_sites, seed=seed, cache_enabled=cache,
        group_size=n_sites + 1,  # a single group: the fan-out covers everyone
        monitors=False,
    )
    vo.form_overlay()
    names = vo.site_names
    registry_names = names[:registry_sites]
    client_names = names[registry_sites:]
    _populate(vo, registry_names, total_deployments)

    def request_factory(client_index: int):
        site = client_names[client_index % len(client_names)]

        def request() -> Generator:
            yield from vo.client_call(
                site, "get_deployments",
                payload={"type": TYPE_NAME, "auto_deploy": False},
            )

        return request

    stats = spawn_clients(vo.sim, clients, request_factory, HORIZON,
                          think_time=0.05, warmup=WARMUP)
    vo.sim.run(until=HORIZON)
    return Fig12Point(
        sites=registry_sites,
        cache=cache,
        clients=clients,
        total_deployments=total_deployments,
        mean_response_ms=stats.mean_response * 1000.0,
        completed=stats.completed,
    )


def format_fig12(points: List[Fig12Point]) -> str:
    rows = []
    for point in points:
        label = (f"cache on, {point.sites} site(s)" if point.cache
                 else f"no cache, {point.sites} site(s)")
        rows.append([label, round(point.mean_response_ms, 1), point.completed])
    return format_table(
        ["configuration", "response time (ms)", "requests"],
        rows,
        title="Fig. 12 — response time per deployment-list request",
    )


def _units(site_counts: Sequence[int]) -> List[WorkUnit]:
    """The paper's four series: cache @ 1 site; no cache per site count."""
    fn = "repro.experiments.fig12:run_fig12_point"
    return [WorkUnit("fig12:cache:1", fn, {"registry_sites": 1, "cache": True})] + [
        WorkUnit(f"fig12:nocache:{count}", fn,
                 {"registry_sites": count, "cache": False})
        for count in site_counts
    ]


def _check(results: Results) -> None:
    """Paper Fig. 12: "a significant improvement in performance by
    increasing number of sites or by enabling the cache"."""
    points = list(results.values())
    uncached = {p.sites: p.mean_response_ms for p in points if not p.cache}
    by_sites = [uncached[sites] for sites in sorted(uncached)]
    assert all(a > b for a, b in zip(by_sites, by_sites[1:])), (
        f"fig12: more sites are not faster without a cache: {uncached}")
    cached = [p.mean_response_ms for p in points if p.cache]
    if cached and 7 in uncached:
        assert cached[0] < 0.5 * uncached[7], (
            f"fig12: the cache ({cached[0]:.1f} ms) is not under half of "
            f"no-cache on 7 sites ({uncached[7]:.1f} ms)")
    assert all(p.completed > 100 for p in points), (
        "fig12: a configuration completed too few requests to mean anything")


EXPERIMENT = Experiment(
    name="fig12",
    summary="deployment-list response time: cache on one site vs no cache "
            "on 1/3/7 sites",
    quick=(1, 3, 7),
    full=(1, 3, 7),
    units=_units,
    render=lambda results: format_fig12(list(results.values())),
    check=_check,
)
