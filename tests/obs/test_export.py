"""Tests for the JSONL/Chrome exporters and text renderers."""

import io
import json

import pytest

from repro.obs.export import (
    chrome_counter_events,
    chrome_trace_events,
    export_chrome,
    export_jsonl,
    health_to_dict,
    metrics_to_dict,
    node_health,
    render_alerts,
    render_health,
    render_metrics,
    render_slo,
    span_to_dict,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import BurnRateRule, SLOEngine, SLOSpec
from repro.obs.trace import Tracer
from repro.simkernel import Simulator


@pytest.fixture()
def sample_spans():
    sim = Simulator()
    tracer = Tracer()
    tracer.bind(sim)

    def work():
        with tracer.span("rpc:svc.op", src="agrid01", dst="agrid02"):
            yield sim.timeout(1)
            with tracer.span("serve:svc.op", site="agrid02"):
                yield sim.timeout(2)

    sim.process(work())
    sim.run()
    return tracer.spans


def test_span_to_dict_round_trips(sample_spans):
    data = span_to_dict(sample_spans[0])
    assert data["name"] == "serve:svc.op"
    assert data["duration"] == pytest.approx(2.0)
    json.dumps(data)  # must be JSON-serialisable


def test_export_jsonl(sample_spans):
    stream = io.StringIO()
    assert export_jsonl(sample_spans, stream) == 2
    lines = stream.getvalue().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert {p["name"] for p in parsed} == {"rpc:svc.op", "serve:svc.op"}
    assert all(p["trace"] == parsed[0]["trace"] for p in parsed)


def test_chrome_events_structure(sample_spans):
    events = chrome_trace_events(sample_spans)
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    # one process per site (serve span has site=agrid02, rpc falls back
    # to src=agrid01), plus one complete event per span
    assert {m["args"]["name"] for m in meta} == {"agrid01", "agrid02"}
    assert len(complete) == 2
    serve = next(e for e in complete if e["name"] == "serve:svc.op")
    assert serve["ts"] == pytest.approx(1e6)  # started at t=1s, in us
    assert serve["dur"] == pytest.approx(2e6)


def test_export_chrome_writes_valid_json(sample_spans):
    stream = io.StringIO()
    count = export_chrome(sample_spans, stream)
    document = json.loads(stream.getvalue())
    assert len(document["traceEvents"]) == count
    assert document["displayTimeUnit"] == "ms"


def test_render_metrics_empty_registry():
    text = render_metrics(MetricsRegistry())
    assert "(no counters recorded)" in text
    assert "(no histograms recorded)" in text
    assert "(no time series recorded)" in text


def test_render_metrics_populated():
    registry = MetricsRegistry()
    registry.counter("rpc.calls", endpoint="a.b").inc(3)
    registry.histogram("rpc.latency", endpoint="a.b").observe(0.25)
    registry.sample("site.load", 1.5, site="agrid00")
    text = render_metrics(registry)
    assert "rpc.calls" in text and "endpoint=a.b" in text
    assert "250.00" in text  # 0.25 s in ms
    assert "site.load" in text


@pytest.fixture()
def populated_registry():
    registry = MetricsRegistry()
    registry.counter("rpc.calls", endpoint="a.b").inc(3)
    registry.histogram("rpc.latency", endpoint="a.b").observe(0.25)
    registry.sample("site.load", 1.5, site="agrid00")
    registry.sample("site.load", 2.5, site="agrid00")
    return registry


def test_chrome_counter_events(populated_registry):
    events = chrome_counter_events(populated_registry)
    counters = [e for e in events if e["ph"] == "C"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(counters) == 2  # one per sample
    assert {m["args"]["name"] for m in meta} == {"agrid00"}
    first = counters[0]
    assert first["name"] == "site.load"
    assert first["args"] == {"site.load": 1.5}
    assert first["ts"] == 0.0


def test_export_chrome_shares_pids_with_counters(sample_spans,
                                                 populated_registry):
    populated_registry.sample("site.load", 9.0, site="agrid01")
    stream = io.StringIO()
    count = export_chrome(sample_spans, stream, registry=populated_registry)
    document = json.loads(stream.getvalue())
    events = document["traceEvents"]
    assert len(events) == count
    # agrid01 hosts both a span and a counter series: one shared pid
    meta = {e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"}
    span_pids = {e["pid"] for e in events if e["ph"] == "X"}
    counter_pids = {e["pid"] for e in events if e["ph"] == "C"}
    assert meta["agrid01"] in span_pids
    assert meta["agrid01"] in counter_pids


def test_metrics_to_dict(populated_registry):
    data = metrics_to_dict(populated_registry)
    json.dumps(data)  # must be JSON-serialisable
    assert data["counters"] == [
        {"name": "rpc.calls", "labels": {"endpoint": "a.b"}, "value": 3}
    ]
    assert data["histograms"][0]["count"] == 1
    series, = data["series"]
    assert series["samples"] == [[0.0, 1.5], [0.0, 2.5]]


# -- SLO / health renderers --------------------------------------------------


@pytest.fixture()
def burning_engine():
    sim = Simulator(seed=1)
    engine = SLOEngine((
        SLOSpec(name="avail", endpoint="svc.*", target=0.9,
                alerts=(BurnRateRule("fast", 10.0, 1.0),)),
    ))
    engine.bind(sim)
    for ok in (True, False, False):
        engine.record("svc.op", sim.now, sim.now, ok=ok)
    engine.evaluate()
    return engine


def test_render_slo_table(burning_engine):
    text = render_slo(burning_engine)
    assert "avail" in text and "svc.*" in text
    assert "exhausted" in text
    assert "6.67x" in text  # (2/3) / 0.1 budget


def test_render_alerts_log(burning_engine):
    text = render_alerts(burning_engine)
    assert "fired" in text and "avail/fast" in text
    assert "active now: avail/fast" in text


def test_render_alerts_empty():
    sim = Simulator()
    engine = SLOEngine((SLOSpec(name="s", endpoint="*"),))
    engine.bind(sim)
    assert render_alerts(engine) == "(no burn-rate alerts fired)"


def fault(kind, site, at):
    return {"at": at, "plane": "faults", "kind": kind, "site": site}


@pytest.fixture()
def populated_health():
    """A journal in which agrid01 crashes for good and agrid02 crashes
    and restarts, among entries the fold must ignore; three nodes."""
    journal = [fault("crash", "agrid01", 10.0), fault("crash", "agrid02", 20.0),
               fault("crash-skip", "agrid01", 30.0),
               {"at": 40.0, "plane": "slo", "kind": "fired", "slo": "s",
                "rule": "fast", "burn": 2.0},
               fault("restart", "agrid02", 50.0)]
    return journal, ("agrid02", "agrid00", "agrid01")


def test_node_health_is_a_fold_over_the_journal(populated_health):
    assert node_health(*populated_health) == {
        "agrid00": ("up", 0.0),     # never crashed
        "agrid01": ("down", 10.0),  # a crash without a restart
        "agrid02": ("up", 50.0),    # crash then restart, since the restart
    }
    journal, nodes = populated_health
    assert list(node_health(journal[:2], nodes).values()) == [
        ("up", 0.0), ("down", 10.0), ("down", 20.0)]


def test_health_to_dict(populated_health):
    data = health_to_dict(*populated_health)
    json.dumps(data)
    nodes = {n["node"]: n for n in data["nodes"]}
    assert nodes["agrid01"]["state"] == "down"
    assert nodes["agrid02"] == {"node": "agrid02", "state": "up", "since": 50.0}
    assert data["summary"] == {"up": 2, "down": 1}
    assert [t["kind"] for t in data["transitions"]] == [
        "crash", "crash", "restart"]


def test_render_health(populated_health):
    text = render_health(*populated_health)
    assert "VO health" in text
    assert "agrid01" in text and "down" in text
    assert "summary: up=2, down=1" in text
    assert "fault-plane crash" in text
    assert "-> up          (fault-plane restart)" in text


def test_render_health_empty():
    assert render_health([], ()) == "(no health signals recorded)"
