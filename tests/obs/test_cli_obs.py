"""CLI smoke tests for the trace/metrics subcommands."""

import json

import pytest

from repro.cli import main


@pytest.mark.slow
def test_trace_command_prints_trees_and_exports(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    assert main(["trace", "deploy",
                 "--chrome-out", str(chrome),
                 "--jsonl-out", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "rpc:glare-rdm.get_deployments" in out
    assert "tier:on-demand" in out
    assert "install:handler" in out

    document = json.loads(chrome.read_text())
    assert document["traceEvents"]
    lines = jsonl.read_text().splitlines()
    assert lines and all(json.loads(line)["name"] for line in lines)


@pytest.mark.slow
def test_metrics_command_prints_all_planes(capsys):
    assert main(["metrics", "deploy"]) == 0
    out = capsys.readouterr().out
    assert "rpc.calls" in out          # counters
    assert "rpc.latency" in out        # histograms
    assert "site.load" in out          # gauge series
    assert "VO metrics" in out         # stats snapshot table


def test_trace_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["trace", "nonsense"])


@pytest.mark.slow
def test_metrics_format_json_is_parseable(capsys):
    assert main(["metrics", "deploy", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"counters", "histograms", "series"}
    assert any(c["name"] == "rpc.calls" for c in data["counters"])


@pytest.mark.slow
def test_metrics_format_csv_has_flat_rows(capsys):
    assert main(["metrics", "deploy", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("kind,name,labels,count,value")
    kinds = {line.split(",", 1)[0] for line in lines[1:]}
    assert {"counter", "histogram", "series"} <= kinds


@pytest.mark.slow
def test_health_defaults_to_the_churn_scenario(capsys):
    assert main(["health"]) == 0
    out = capsys.readouterr().out
    assert "VO health" in out
    # the churn scenario crashes agrid01, so the health transitions must
    # show the fault plane driving the registry
    assert "fault-plane crash" in out
    assert "fault-plane restart" in out


@pytest.mark.slow
def test_health_format_json(capsys):
    assert main(["health", "churn", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"nodes", "summary", "transitions"}
    states = {n["node"]: n["state"] for n in data["nodes"]}
    assert "agrid01" in states


@pytest.mark.slow
def test_health_format_csv(capsys):
    assert main(["health", "churn", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "node,service,state,since"
    assert len(lines) > 1


@pytest.mark.slow
def test_slo_command_prints_budgets_and_detection(capsys):
    assert main(["slo"]) == 0
    out = capsys.readouterr().out
    assert "Service-level objectives" in out
    assert "rdm-attempts" in out and "rdm-calls" in out
    assert "Burn-rate alerts" in out
    assert "Crash detection" in out
    assert "agrid01 crashed" in out and "detected in" in out


@pytest.mark.slow
def test_analyze_command_prints_trace_analytics(capsys):
    assert main(["analyze", "deploy", "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "Self-time by operation" in out
    assert "critical path:" in out


@pytest.mark.slow
def test_report_command_prints_every_plane(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    # health, SLO, crash detection, metrics and analytics in one report
    assert "VO health" in out
    assert "Service-level objectives" in out
    assert "Crash detection" in out and "agrid01 crashed" in out
    assert "Counters" in out
    assert "Self-time by operation" in out
