#!/usr/bin/env python3
"""Tracing: capture the full story of one on-demand deployment.

Builds an observability-enabled VO, registers the Wien2k activity type
on one site and resolves it from another — which triggers the complete
provisioning pipeline (tier walk, candidate selection, deploy-file
transfer, handler execution, registration, notification).  All of that
lands in ONE distributed trace because span context propagates through
the RPC metadata; this script prints the trace's critical path and
waterfall, the latency histograms, and dumps a Chrome trace-event file you can load in
chrome://tracing or ui.perfetto.dev.

Run:  python examples/tracing.py
"""

import tempfile
from pathlib import Path

from repro.apps import get_application, publish_applications
from repro.obs.analyze import format_critical_path, format_waterfall
from repro.obs.export import export_chrome, render_histograms
from repro.vo import build_vo


def main() -> None:
    # 1. Observability-enabled VO: same physics, plus a tracer and a
    #    metrics registry (zero simulated cost, so numbers don't move).
    vo = build_vo(n_sites=4, seed=2024, monitors=False, observability=True)
    publish_applications(vo, ["Wien2k"])
    vo.form_overlay()

    # 2. Provider registers the type on agrid01; client on agrid02
    #    resolves it, forcing an on-demand install somewhere suitable.
    spec = get_application("Wien2k")
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml}))
    wires = vo.run_process(vo.client_call("agrid02", "get_deployments",
                                          payload="Wien2k"))
    print(f"resolved {len(wires)} deployment(s) at t={vo.sim.now:.2f}s\n")

    # 3. The resolution is one trace: find the get_deployments root and
    #    print the hops its latency waited on, then its whole tree.
    tracer = vo.obs.tracer
    roots = tracer.find("rpc:glare-rdm.get_deployments")
    assert roots, "expected a traced get_deployments call"
    spans = tracer.trace_of(roots[0])
    print(format_critical_path(
        spans, title=f"on-demand deployment ({len(spans)} spans)"
    ))
    print()
    print(format_waterfall(spans))

    # The tree must contain every pipeline stage, correctly nested.
    names = {span.name for span in spans}
    for expected in ("glare:get_deployments", "tier:on-demand",
                     "deploy:on_demand", "install:fetch_deployfile",
                     "install:handler", "install:register",
                     "install:notify"):
        assert expected in names, f"missing span {expected!r}"

    # 4. Latency percentiles for every endpoint and pipeline stage.
    print()
    print(render_histograms(vo.obs.metrics))

    # 5. Chrome trace-event dump of everything the tracer captured.
    out = Path(tempfile.gettempdir()) / "glare-trace.json"
    with open(out, "w") as stream:
        events = export_chrome(tracer.spans, stream)
    print(f"\nwrote {events} Chrome trace events to {out}")


if __name__ == "__main__":
    main()
