"""Regenerate paper Fig. 11: throughput vs number of registered types.

Shape targets: the registry's hash-table lookups keep its throughput
flat as the registry grows; the index's XPath scans make it decay; and
past ~130 registered resources with more than 10 concurrent clients the
index "stops responding" (heap-pressure collapse).
"""

import pytest

from repro.experiments.fig11 import (
    EXPERIMENT,
    PROBE,
    format_fig11,
    run_collapse_probe,
)
from repro.experiments.harness import run_grid

SIZES = (10, 50, 100, 130, 150)


def test_fig11(benchmark, print_report):
    results = benchmark(run_grid, EXPERIMENT, (SIZES, False))
    points = [point for name, point in results.items() if name != PROBE]
    print_report(format_fig11(points))

    def series(service):
        return [
            p.throughput for p in sorted(
                (q for q in points if q.service == service),
                key=lambda q: q.resources,
            )
        ]

    registry = series("registry")
    index = series("index")
    # registry throughput is flat (within 10%) across the sweep
    assert max(registry) - min(registry) < 0.1 * max(registry)
    # index throughput decays monotonically and substantially
    assert all(a >= b for a, b in zip(index, index[1:]))
    assert index[-1] < 0.5 * index[0]
    benchmark.extra_info["registry_rps"] = [round(v, 1) for v in registry]
    benchmark.extra_info["index_rps"] = [round(v, 1) for v in index]


def test_fig11_collapse(benchmark, print_report):
    """>130 resources and >10 clients: the index stops responding."""
    probe = benchmark(run_collapse_probe, resources=150, clients=12)
    print_report(
        f"Collapse probe: index with {probe.resources} resources and "
        f"{probe.clients} clients served {probe.throughput:.2f} req/s"
    )
    assert probe.throughput < 2.0
    benchmark.extra_info["collapse_rps"] = round(probe.throughput, 2)
