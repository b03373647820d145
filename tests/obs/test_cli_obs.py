"""CLI tests for ``repro report``, the one observability command.

``report SCENARIO`` prints the run report as text, or with ``--format
json`` the same sections as one record; the two must never disagree.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def reports():
    """``scenario -> (text, record)``: each scenario's report in both
    formats, run at most once a module."""

    class Reports(dict):
        def __missing__(self, scenario):
            text = _stdout(["report", scenario])
            record = json.loads(_stdout(["report", scenario,
                                         "--format", "json"]))
            self[scenario] = text, record
            return self[scenario]

    return Reports()


@pytest.mark.slow
def test_trace_command_prints_trees_and_exports(tmp_path, capsys):
    """``--chrome-out`` / ``--jsonl-out`` write every span; the report's
    waterfalls show the nested deploy pipeline."""
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    assert main(["report", "deploy",
                 "--chrome-out", str(chrome),
                 "--jsonl-out", str(jsonl)]) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "rpc:glare-rdm.get_deployments" in out
    assert "tier:on-demand" in out
    assert "install:handler" in out
    # the export notes go to stderr, so stdout stays the report
    assert f"Chrome trace events to {chrome}" in captured.err
    assert f"spans to {jsonl}" in captured.err

    document = json.loads(chrome.read_text())
    assert document["traceEvents"]
    lines = jsonl.read_text().splitlines()
    assert lines and all(json.loads(line)["name"] for line in lines)


@pytest.mark.slow
def test_metrics_command_prints_all_planes(reports):
    text, record = reports["deploy"]
    assert "rpc.calls" in text         # counters
    assert "rpc.latency" in text       # histograms
    assert "site.load" in text         # gauge series
    # the repro.stats per-site snapshot is the record's stats section
    stats = record["stats"]
    assert set(stats["sites"]) == {"agrid00", "agrid01", "agrid02", "agrid03"}
    assert stats["resolution"]["on-demand-deploy"] == 1
    assert 0.0 <= stats["cache_hit_rate"] <= 1.0


def test_trace_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["report", "nonsense"])


@pytest.mark.slow
def test_metrics_format_json_is_parseable(reports):
    _, record = reports["deploy"]
    metrics = record["metrics"]
    assert set(metrics) == {"counters", "histograms", "series"}
    assert any(c["name"] == "rpc.calls" for c in metrics["counters"])


@pytest.mark.slow
def test_health_defaults_to_the_churn_scenario(reports, capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert out == reports["churn"][0]
    assert "VO health" in out
    # the churn scenario crashes agrid01, so the health transitions must
    # show the fault plane driving the registry
    assert "fault-plane crash" in out
    assert "fault-plane restart" in out


@pytest.mark.slow
def test_health_format_json(reports):
    _, record = reports["churn"]
    health = record["health"]
    assert set(health) == {"nodes", "summary", "transitions"}
    states = {n["node"]: n["state"] for n in health["nodes"]}
    assert "agrid01" in states


@pytest.mark.slow
def test_slo_command_prints_budgets_and_detection(reports):
    out, _ = reports["churn"]
    assert "Service-level objectives" in out
    assert "rdm-attempts" in out and "rdm-calls" in out
    assert "Burn-rate alerts" in out
    assert "Crash detection" in out
    assert "agrid01 crashed" in out and "detected in" in out


@pytest.mark.slow
def test_analyze_command_prints_trace_analytics(capsys):
    assert main(["report", "deploy", "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "Self-time by operation" in out
    assert out.count("critical path:") == 1


@pytest.mark.slow
def test_report_command_prints_every_plane(reports):
    out, _ = reports["churn"]
    # health, SLO, crash detection, metrics and analytics in one report
    assert "VO health" in out
    assert "Service-level objectives" in out
    assert "Crash detection" in out and "agrid01 crashed" in out
    assert "Counters" in out
    assert "Self-time by operation" in out


# -- the text and the record cannot disagree --------------------------------

#: record key -> the first lines its text section may start with: its
#: title, or the placeholder an empty section prints instead
SECTION_STARTS = {
    "health": {"VO health", "(no health signals recorded)"},
    "slo": {"Service-level objectives", "(no SLOs configured)"},
    "alerts": {"Burn-rate alerts", "(no burn-rate alerts fired)"},
    "detection": {"Crash detection"},
    "metrics": {"Counters", "(no counters recorded)"},
    "traces": {"Self-time by operation", "(no spans captured)"},
}


def _table_rows(text, title):
    """The cells of each data row of the table titled ``title``."""
    lines = text.splitlines()
    start = lines.index(title) + 3  # title, header, rule
    rows = []
    for line in lines[start:]:
        if "|" not in line:
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return rows


@pytest.mark.slow
@pytest.mark.parametrize("scenario", ["churn", "deploy"])
class TestTextAndRecordAgree:
    def test_a_section_is_in_both_or_neither(self, reports, scenario):
        text, record = reports[scenario]
        heads = {block.splitlines()[0] for block in text.split("\n\n")}
        for key, starts in SECTION_STARTS.items():
            assert (key in record) == bool(heads & starts), key
        assert set(record) - set(SECTION_STARTS) == {"stats"}

    def test_slo_verdicts_agree(self, reports, scenario):
        text, record = reports[scenario]
        shown = {row[0]: row[-1]
                 for row in _table_rows(text, "Service-level objectives")}
        assert shown == {row["slo"]: row["verdict"] for row in record["slo"]}

    def test_health_node_states_agree(self, reports, scenario):
        text, record = reports[scenario]
        shown = {row[0]: row[1] for row in _table_rows(text, "VO health")}
        assert shown == {node["node"]: node["state"]
                         for node in record["health"]["nodes"]}

    def test_crash_detection_rows_agree(self, reports, scenario):
        text, record = reports[scenario]
        shown = [line.strip() for line in text.splitlines()
                 if " crashed t=" in line]
        assert shown == [
            f"{row['site']} crashed t={row['crash_at']:.2f}s: detected in "
            f"{row['mttd']:.2f}s, incident closed in {row['mttr']:.2f}s"
            for row in record.get("detection", [])]
        assert bool(shown) == (scenario == "churn")


# -- options only ``report SCENARIO`` reads ---------------------------------


def test_negative_top_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "deploy", "--top", "-1"])
    assert exit_info.value.code == 2
    assert "--top" in capsys.readouterr().err


def test_format_csv_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "deploy", "--format", "csv"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["table1", "--format", "json"], "--format"),
    (["table1", "--top", "2"], "--top"),
    (["table1", "--chrome-out", "trace.json"], "--chrome-out"),
    (["table1", "--jsonl-out", "spans.jsonl"], "--jsonl-out"),
    (["report", "experiments", "--format", "json"], "--format"),
    (["report", "experiments", "--top", "2"], "--top"),
    (["report", "experiments", "--chrome-out", "trace.json"], "--chrome-out"),
    (["report", "experiments", "--jsonl-out", "spans.jsonl"], "--jsonl-out"),
    (["table1", "churn"], "scenario 'churn'"),
])
def test_report_option_elsewhere_exits_2(argv, flag, capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # refused before any file
