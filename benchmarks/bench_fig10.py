"""Regenerate paper Fig. 10: registry vs WS-MDS throughput.

Shape targets: the Activity Type Registry sustains roughly twice the
index's saturated throughput ("Index Service is 50% slower than
Activity Registry because of its XPath-based querying mechanism"), and
enabling transport-level security costs both services roughly half
their throughput.
"""

import pytest

from repro.experiments.fig10 import EXPERIMENT, format_fig10
from repro.experiments.harness import run_grid

CLIENTS = (1, 2, 4, 8, 12, 16)


def test_fig10(benchmark, print_report):
    points = list(benchmark(run_grid, EXPERIMENT, CLIENTS).values())
    print_report(format_fig10(points))

    def saturated(service, security):
        return max(
            p.throughput for p in points
            if p.service == service and p.security == security
        )

    registry_http = saturated("registry", "http")
    index_http = saturated("index", "http")
    registry_https = saturated("registry", "https")
    index_https = saturated("index", "https")

    # registry ~2x the index
    assert 1.4 < registry_http / index_http < 3.0
    # security halves the registry's throughput
    assert 1.6 < registry_http / registry_https < 3.2
    # ... and costs the index a comparable fraction
    assert 1.3 < index_http / index_https < 3.2
    # throughput grows with client count up to saturation
    registry_series = [
        p.throughput for p in points
        if p.service == "registry" and p.security == "http"
    ]
    assert registry_series[0] < registry_series[-1]
    benchmark.extra_info["saturated_rps"] = {
        "registry/http": round(registry_http, 1),
        "registry/https": round(registry_https, 1),
        "index/http": round(index_http, 1),
        "index/https": round(index_https, 1),
    }
