"""Regenerate paper Fig. 12: deployment-list response time.

Shape targets: response time drops as deployment entries spread over
more sites (1 → 3 → 7), and the cached configuration is the fastest of
all — "a significant improvement in performance by increasing number
of sites or by enabling the cache".
"""

import pytest

from repro.experiments.fig12 import EXPERIMENT, format_fig12
from repro.experiments.harness import run_grid


def test_fig12(benchmark, print_report):
    points = list(benchmark(run_grid, EXPERIMENT, (1, 3, 7)).values())
    print_report(format_fig12(points))

    by_config = {(p.sites, p.cache): p.mean_response_ms for p in points}
    no_cache_1 = by_config[(1, False)]
    no_cache_3 = by_config[(3, False)]
    no_cache_7 = by_config[(7, False)]
    cached = by_config[(1, True)]

    # more sites => faster
    assert no_cache_7 < no_cache_3 < no_cache_1
    # the cache beats every uncached configuration by a wide margin
    assert cached < 0.5 * no_cache_7
    # every client request actually completed work
    assert all(p.completed > 100 for p in points)
    benchmark.extra_info["response_ms"] = {
        "cache@1": round(cached, 1),
        "nocache@1": round(no_cache_1, 1),
        "nocache@3": round(no_cache_3, 1),
        "nocache@7": round(no_cache_7, 1),
    }
