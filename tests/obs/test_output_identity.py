"""The obs plane's whole output stream, pinned as one sha256.

The scenario below crosses every layer of the RPC pipeline at once —
tracing, metrics, an attempt-level and a call-level SLO, a 3-attempt
retry policy, a lossy link and an admission limit — and the hash folds
every span (name, ids, parent, start, end, attrs), counter, histogram
bucket, SLO total and alert.  The value was recorded on the commit
*before* the hook-pair pipeline / one-call spans / memoised instruments
refactor: a refactor of the obs plane may make it cheaper, never
different.
"""

import hashlib

from repro.faults import FaultsConfig, LinkRule
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.glare.rdm import RDM_SERVICE
from repro.net.interceptors import RetryPolicy
from repro.obs import Observability, SLOSpec
from repro.obs.trace import Tracer
from repro.simkernel import Simulator
from repro.vo import build_vo

PINNED = "dc7e21da0062ba0ee6958b1f1c54adc77d9175988bb7ef911142ef053c9ffd07"

TYPE_XML = (
    '<ActivityTypeEntry name="{name}" kind="concrete">'
    "<Domain>identity</Domain>"
    '<Function name="run"><Input>data</Input><Output>result</Output></Function>'
    '<Benchmark platform="Intel">1.0</Benchmark>'
    "<Provider>identity</Provider>"
    "</ActivityTypeEntry>"
)

SLOS = (
    SLOSpec(name="rpc-availability", endpoint="*", target=0.9),
    SLOSpec(name="resolve-latency", endpoint=f"{RDM_SERVICE}.get_deployments",
            objective="latency", target=0.95, threshold_s=0.05, level="call"),
)

POLICY = RetryPolicy(attempts=3, per_try_timeout=2.0, base_delay=0.2,
                     jitter=0.5, deadline=8.0)


def run_identity_scenario():
    vo = build_vo(
        n_sites=6, seed=20050512, monitors=False, lifecycle=False,
        cache_enabled=True, admission_limit=2,
        observability=Observability(enabled=True, slos=SLOS),
        faults=FaultsConfig(links=(LinkRule(loss=0.2),)),
    )
    server = vo.site_names[1]
    clients = [s for s in vo.site_names if s != server]
    types = [f"IdentityType{i}" for i in range(3)]
    for name in types:
        vo.run_process(vo.client_call(
            server, "register_type", payload={"xml": TYPE_XML.format(name=name)}))
        lower = name.lower()
        deployment = ActivityDeployment(
            name=f"{lower}-bin", type_name=name, kind=DeploymentKind.EXECUTABLE,
            site=server, path=f"/opt/deployments/{lower}/bin/run",
            home=f"/opt/deployments/{lower}", status=DeploymentStatus.ACTIVE)
        vo.run_process(vo.client_call(
            server, "register_deployment",
            payload={"xml": deployment.wire_xml()}))

    outcomes = []

    def client(index):
        yield vo.sim.timeout(0.002 * index)
        for round_ in range(6):
            try:
                yield from vo.network.call(
                    clients[index % len(clients)], server, RDM_SERVICE,
                    "get_deployments",
                    payload={"type": types[(index + round_) % len(types)],
                             "auto_deploy": False},
                    retry=POLICY)
                outcomes.append("ok")
            except Exception as error:  # noqa: BLE001 - outcome is the datum
                outcomes.append(type(error).__name__)

    for index in range(40):
        vo.sim.process(client(index))
    vo.sim.run(until=vo.sim.now + 120.0)
    return vo, outcomes


def obs_output_sha(vo, extra=()):
    """sha256 over everything the obs plane emitted, in a canonical order."""
    sha = hashlib.sha256()

    def line(*fields):
        sha.update(("|".join(str(f) for f in fields) + "\n").encode())

    for span in vo.obs.tracer.spans:
        line("span", span.name, span.trace_id, span.span_id, span.parent_id,
             repr(span.start), repr(span.end), sorted(span.attrs.items()))
    for counter in vo.obs.metrics.counters():
        line("counter", counter.name, counter.labels, counter.value)
    for histogram in vo.obs.metrics.histograms():
        line("histogram", histogram.name, histogram.labels, histogram.counts,
             histogram.count, repr(histogram.total))
    engine = vo.obs.slo
    for status in engine.statuses():
        line("slo", status.name, status.total, status.bad)
    line("events_recorded", engine.events_recorded)
    for entry in engine.alert_log:
        line("alert", sorted(entry.items()))
    for item in extra:
        line("extra", item)
    return sha.hexdigest()


def test_obs_output_stream_is_byte_identical_to_the_pre_refactor_commit():
    vo, outcomes = run_identity_scenario()
    # the scenario really does cross every layer it claims to
    tracer, metrics = vo.obs.tracer, vo.obs.metrics
    counters = {c.name for c in metrics.counters()}
    assert {"rpc.calls", "rpc.errors", "rpc.retries", "rpc.shed"} <= counters
    assert vo.network.retries_total > 0
    assert vo.faults.link_faults_injected > 0
    assert {"ok", "OfflineError"} <= set(outcomes)
    assert all(s.total > 0 for s in vo.obs.slo.statuses())
    assert tracer.open_spans() == [] and tracer.leaked_spans() == []
    assert obs_output_sha(vo, outcomes) == PINNED


def test_open_and_leaked_spans_on_the_two_leak_scenarios():
    """A live owner's open span is open but not leaked; a dead owner's is both.

    Same two scenarios as ``tests/obs/test_trace.py``, with a finished
    child above the open span so the audit has to look past it.
    """
    sim = Simulator(seed=1)
    tracer = Tracer()
    tracer.bind(sim)

    def keepalive():
        with tracer.span("forever"):
            while True:
                with tracer.span("beat"):
                    yield sim.timeout(1)

    def sloppy():
        tracer.span("dropped").__enter__()  # deliberately never exited
        with tracer.span("tidy"):
            yield sim.timeout(1)

    sim.process(keepalive())
    sim.process(sloppy())
    sim.run(until=5.5)
    assert [s.name for s in tracer.open_spans()] == ["forever", "dropped", "beat"]
    assert [s.name for s in tracer.leaked_spans()] == ["dropped"]
    assert all(s.end is None for s in tracer.open_spans())
    assert len(tracer.find("beat")) == 5 and len(tracer.find("tidy")) == 1
