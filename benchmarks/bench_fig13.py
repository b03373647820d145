"""Regenerate paper Fig. 13: 1-minute load average on the registry host.

Shape targets: the load average grows with the number of notification
sinks and with the notification rate ("load average is proportional to
the notification rate"), peaking around 16 at 210 sinks with a 1 s
rate; the requester series stays low, peaking just below 5.
"""

import pytest

from repro.experiments.fig13 import (
    EXPERIMENT,
    format_fig13,
    run_requester_point,
    run_sink_point,
)
from repro.experiments.harness import run_grid

REQUESTERS = (0, 60, 120, 210)
SINKS = (0, 60, 120, 180, 210)


def test_fig13(benchmark, print_report):
    points = list(benchmark(
        run_grid, EXPERIMENT, (REQUESTERS, SINKS, (1.0, 5.0, 10.0)),
    ).values())
    print_report(format_fig13(points))

    def load(series, count):
        for p in points:
            if p.series == series and p.count == count:
                return p.load_average
        raise KeyError((series, count))

    peak_1s = load("sinks@1s", 210)
    # peak in the paper's ballpark (slightly above 16)
    assert 8.0 < peak_1s < 32.0
    # load is proportional to the notification rate
    assert peak_1s > load("sinks@5s", 210) > 0
    assert load("sinks@5s", 210) >= load("sinks@10s", 210)
    # load grows with sink count
    assert peak_1s > load("sinks@1s", 120) > load("sinks@1s", 0)
    # requester series peaks below ~5
    requester_peak = max(load("requesters", c) for c in REQUESTERS)
    assert requester_peak < 6.0
    assert requester_peak > 1.0
    benchmark.extra_info["peaks"] = {
        "sinks@1s/210": round(peak_1s, 2),
        "requesters/210": round(load("requesters", 210), 2),
    }
