"""Smoke tests for the experiment harness (small parameterisations).

These tests pin the drivers' data contracts.  The headline shape
properties are each artefact's ``Experiment.check``: enforced on every
run, including the session's ``--quick`` runs below, and proven to
raise on doctored results in ``test_registry.TestPaperClaims``.
"""

import pytest

from repro.experiments.fig10 import run_fig10_point
from repro.experiments.report import format_multi_series, format_series, format_table
from repro.experiments.table1 import Table1Row, format_table1, run_table1_row
from repro.experiments.workload import (
    ClientStats,
    synthetic_activity_type,
    synthetic_type_doc,
)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bbbb", 22.5]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len({len(l) for l in lines[1:]}) <= 2  # consistent width

    def test_format_table_rejects_ragged_rows(self):
        from repro.experiments.report import Table

        table = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_series(self):
        text = format_series("S", [1, 2], [10.0, 20.0], "x", "y")
        assert "10.0" in text and "20.0" in text

    def test_multi_series_aligns_by_x(self):
        text = format_multi_series(
            "M", "x", [1, 2, 3],
            {"a": [10, 30], "b": [1, 2, 3]},
            series_xs={"a": [1, 3]},
        )
        lines = text.splitlines()  # [title, header, separator, rows...]
        row2 = [c.strip() for c in lines[4].split("|")]
        assert row2[0] == "2" and row2[1] == ""  # series a has no x=2


class TestWorkload:
    def test_synthetic_doc_is_realistic_size(self):
        doc = synthetic_type_doc(3)
        assert 10 <= doc.count_nodes() <= 20
        assert doc.get("name") == "type0003"

    def test_synthetic_type_parses(self):
        at = synthetic_activity_type(5)
        assert at.name == "type0005"
        assert at.is_concrete

    def test_client_stats_merge(self):
        a = ClientStats(completed=2, failed=1)
        for value in (0.1, 0.2):
            a.observe(value)
        b = ClientStats(completed=3)
        b.observe(0.3)
        a.merge(b)
        assert a.completed == 5
        assert a.observations == 3
        assert a.mean_response == pytest.approx(0.2)
        assert a.latency.count == 3

    def test_client_stats_mean_bit_identical_to_list_sum(self):
        # The perf fingerprints pin repr() of fig10 means, so the
        # streaming total must reproduce sum(list)/len exactly.
        values = [0.0123456789 * (i % 17 + 1) / 9.7 for i in range(500)]
        stats = ClientStats()
        for value in values:
            stats.observe(value)
        assert stats.mean_response == sum(values) / len(values)

    def test_client_stats_no_unbounded_list(self):
        stats = ClientStats()
        for i in range(10_000):
            stats.observe(0.001 * (i % 50 + 1))
        # fixed-size histogram state only: no attribute grows with N
        assert not hasattr(stats, "response_times")
        assert len(stats.latency.counts) == 35
        assert stats.latency.p99 >= stats.latency.p50 > 0


class TestTable1Driver:
    def test_single_row_contract(self):
        row = run_table1_row("Wien2k", "expect")
        rows = [row]
        assert isinstance(row, Table1Row)
        assert row.total_ms == pytest.approx(sum(row.stage_values()[:-1]))
        assert row.installation_ms > 1000
        text = format_table1(rows)
        assert "Wien2k" in text and "expect" in text


class TestFigureDrivers:
    def test_fig10_point_contract(self):
        point = run_fig10_point("registry", False, clients=2, n_types=10)
        assert point.throughput > 0
        assert point.mean_response_ms > 0
        assert point.service == "registry" and point.security == "http"


class TestCli:
    def test_cli_quick_table1(self, capsys):
        from repro.cli import main

        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Wien2k" in out
        assert "expect" in out

    def test_cli_rejects_unknown(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])


@pytest.mark.slow
class TestCliQuickSweeps:
    """The --quick paths for every figure actually run end-to-end (the
    session's one quick run of each; ``main`` itself is driven above)."""

    def test_cli_quick_fig10(self, quick_runs):
        out = quick_runs["fig10"].text
        assert "registry/http" in out and "index/https" in out

    def test_cli_quick_fig11(self, quick_runs):
        assert "Collapse probe" in quick_runs["fig11"].text

    def test_cli_quick_fig12(self, quick_runs):
        out = quick_runs["fig12"].text
        assert "cache on, 1 site(s)" in out and "no cache, 7 site(s)" in out

    def test_cli_quick_fig13(self, quick_runs):
        out = quick_runs["fig13"].text
        assert "sinks@1s" in out and "requesters" in out
