"""Fig. 11: throughput as the number of registered types grows.

"Throughput of Index Service decreases significantly with increasing
number of resources whereas ... throughput of an activity type registry
is consistent."  And the overload observation: "sometimes Index Service
stops responding when we register more than 130 activity type resources
in it and number of concurrent clients exceeds 10."

Reproduction: same setup as Fig. 10 with a fixed client population and
a sweep over the registry size.  The registry's hash-table lookups stay
flat; the index's XPath scans grow linearly, and past ~130 resources
with >10 clients the heap-pressure cliff (GC thrash) collapses its
throughput to near zero.  ``run_collapse_probe`` reproduces the paper's
"stops responding" observation directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.fig10 import run_fig10_point
from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_multi_series
from repro.runner import WorkUnit

DEFAULT_SIZES = (10, 25, 50, 75, 100, 130, 150, 175, 200)
DEFAULT_CLIENTS = 8


@dataclass
class Fig11Point:
    service: str
    security: str
    resources: int
    clients: int
    throughput: float


def run_fig11_point(service: str, secure: bool, resources: int,
                    clients: int = DEFAULT_CLIENTS, seed: int = 5) -> Fig11Point:
    """Throughput of one service with ``resources`` registered types."""
    measured = run_fig10_point(service, secure, clients, n_types=resources,
                               seed=seed)
    return Fig11Point(
        service=service,
        security=measured.security,
        resources=resources,
        clients=clients,
        throughput=measured.throughput,
    )


def run_collapse_probe(
    resources: int = 150, clients: int = 12, seed: int = 5
) -> Fig11Point:
    """The paper's 'stops responding' case: >130 resources, >10 clients."""
    return run_fig11_point("index", False, resources, clients=clients,
                           seed=seed)


def format_fig11(points: List[Fig11Point]) -> str:
    xs = sorted({p.resources for p in points})
    series: Dict[str, List[float]] = {}
    for point in points:
        series.setdefault(f"{point.service}/{point.security}", []).append(
            round(point.throughput, 1)
        )
    return format_multi_series(
        f"Fig. 11 — throughput (req/s) vs registered activity types "
        f"({points[0].clients if points else '?'} clients)",
        "resources", xs, series,
    )


PROBE = "fig11:collapse-probe"


def _units(grid: Tuple[Sequence[int], bool]) -> List[WorkUnit]:
    """Both services (+/- security) per registry size, plus the probe."""
    sizes, include_https = grid
    units = [
        WorkUnit(f"fig11:{service}:{'https' if secure else 'http'}:{size}",
                 "repro.experiments.fig11:run_fig11_point",
                 {"service": service, "secure": secure, "resources": size})
        for service in ("registry", "index")
        for secure in ((False, True) if include_https else (False,))
        for size in sizes
    ]
    units.append(WorkUnit(PROBE, "repro.experiments.fig11:run_collapse_probe"))
    return units


def _render(results: Results) -> str:
    probe = results[PROBE]
    sweep = [point for name, point in results.items() if name != PROBE]
    return format_fig11(sweep) + (
        f"\n\nCollapse probe ({probe.resources} resources, {probe.clients} "
        f"clients): index throughput = {probe.throughput:.2f} req/s"
    )


def _check(results: Results) -> None:
    """Paper Fig. 11: hash-table lookups keep the registry flat as it
    grows, XPath scans make the index decay, and past ~130 resources
    with more than 10 clients the index "stops responding"."""
    def series(service: str) -> List[float]:
        sweep = [p for name, p in results.items() if name != PROBE
                 and p.service == service and p.security == "http"]
        return [p.throughput for p in sorted(sweep, key=lambda p: p.resources)]

    registry, index = series("registry"), series("index")
    assert max(registry) - min(registry) < 0.1 * max(registry), (
        f"fig11: registry throughput is not flat within 10%: {registry}")
    assert all(a >= b for a, b in zip(index, index[1:])), (
        f"fig11: index throughput does not decay monotonically: {index}")
    assert len(index) < 2 or index[-1] < 0.5 * index[0], (
        f"fig11: index throughput decays by less than half: {index}")
    probe = results[PROBE]
    assert probe.throughput < 2.0, (
        f"fig11: the overloaded index still serves {probe.throughput:.2f} req/s")


EXPERIMENT = Experiment(
    name="fig11",
    summary="throughput vs registered activity types (index decay + "
            "overload collapse)",
    quick=((10, 100, 150), False),
    full=(DEFAULT_SIZES, True),
    units=_units,
    render=_render,
    check=_check,
)
