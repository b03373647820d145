"""Regenerate paper Table 1: per-stage on-demand deployment overheads.

Paper values (ms) for reference — the reproduction targets the *shape*
(Expect beats JavaCoG on every total; installation dominates; type
addition / registration / notification are sub-second constants):

    Expect : Wien2k 11,068 | Invmod 30,484 | Counter 32,484 (totals)
    JavaCoG: Wien2k 25,001 | Invmod 53,527 | Counter 43,518 (totals)
"""

import pytest

from repro.experiments.harness import run_grid
from repro.experiments.table1 import EXPERIMENT, format_table1

PAPER_TOTALS_MS = {
    ("expect", "Wien2k"): 11068,
    ("expect", "Invmod"): 30484,
    ("expect", "Counter"): 32484,
    ("javacog", "Wien2k"): 25001,
    ("javacog", "Invmod"): 53527,
    ("javacog", "Counter"): 43518,
}


def test_table1(benchmark, print_report):
    rows = list(benchmark(run_grid, EXPERIMENT, EXPERIMENT.full).values())
    report = format_table1(rows)
    print_report(report)

    by_key = {(r.method, r.application): r for r in rows}
    # Shape assertions: Expect beats JavaCoG for every application.
    for application in ("Wien2k", "Invmod", "Counter"):
        assert (
            by_key[("expect", application)].total_ms
            < by_key[("javacog", application)].total_ms
        )
    # Installation dominates the totals for source builds.
    for method in ("expect", "javacog"):
        row = by_key[(method, "Invmod")]
        assert row.installation_ms > 0.5 * row.total_ms
    # Every measured total is within 2x of the paper's number.
    for key, paper_ms in PAPER_TOTALS_MS.items():
        measured = by_key[key].total_ms
        assert paper_ms / 2 < measured < paper_ms * 2, (key, measured, paper_ms)
    benchmark.extra_info["totals_ms"] = {
        f"{m}/{a}": round(r.total_ms) for (m, a), r in by_key.items()
    }
