"""End-to-end tracing acceptance tests: one deployment, one trace.

The headline property of the observability layer: a single traced
``get_deployments`` call that triggers an on-demand install produces
ONE trace containing the client RPC, server dispatch, tier-resolution
walk, transfer, install-handler and registration spans — correctly
nested, with monotonically consistent simulated-time stamps.
"""

import pytest

from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.obs.trace import span_children
from repro.vo import build_vo


@pytest.fixture(scope="module")
def deploy_vo():
    return run_scenario("deploy")


@pytest.fixture(scope="module")
def deploy_trace(deploy_vo):
    tracer = deploy_vo.obs.tracer
    root, = tracer.find("rpc:glare-rdm.get_deployments")
    return tracer.trace_of(root)


def _by_name(spans, name):
    matches = [s for s in spans if s.name == name]
    assert matches, f"span {name!r} missing from trace"
    return matches[0]


class TestDeployTraceTree:
    def test_single_trace_covers_the_whole_pipeline(self, deploy_trace):
        names = {span.name for span in deploy_trace}
        for expected in (
            "rpc:glare-rdm.get_deployments",
            "serve:glare-rdm.get_deployments",
            "glare:get_deployments",
            "tier:local", "tier:group", "tier:super-peer", "tier:on-demand",
            "deploy:on_demand", "deploy:candidates", "deploy:install",
            "rpc:glare-rdm.deploy", "serve:glare-rdm.deploy",
            "install:fetch_deployfile", "gridftp:fetch",
            "install:handler", "install:register", "install:notify",
            "registry:register_deployment",
        ):
            assert expected in names

    def test_parent_child_nesting(self, deploy_trace):
        rpc = _by_name(deploy_trace, "rpc:glare-rdm.get_deployments")
        serve = _by_name(deploy_trace, "serve:glare-rdm.get_deployments")
        resolve = _by_name(deploy_trace, "glare:get_deployments")
        on_demand = _by_name(deploy_trace, "tier:on-demand")
        deploy = _by_name(deploy_trace, "deploy:on_demand")
        handler = _by_name(deploy_trace, "install:handler")

        assert rpc.parent_id is None  # the trace root
        assert serve.parent_id == rpc.span_id
        assert resolve.parent_id == serve.span_id
        assert on_demand.parent_id == resolve.span_id
        assert deploy.parent_id == on_demand.span_id
        # the tier walk hangs off the resolution span
        for tier in ("tier:local", "tier:group", "tier:super-peer"):
            assert _by_name(deploy_trace, tier).parent_id == resolve.span_id
        # handler steps hang off the handler execution span
        steps = [s for s in deploy_trace if s.name.startswith("step:")]
        assert steps and all(s.parent_id == handler.span_id for s in steps)

    def test_remote_install_reparents_through_rpc_metadata(self, deploy_trace):
        """The install runs on another site's process, yet joins the trace."""
        deploy_rpc = _by_name(deploy_trace, "rpc:glare-rdm.deploy")
        deploy_serve = _by_name(deploy_trace, "serve:glare-rdm.deploy")
        assert deploy_serve.parent_id == deploy_rpc.span_id
        assert deploy_serve.trace_id == deploy_rpc.trace_id
        # install spans live under that server-side dispatch
        fetch = _by_name(deploy_trace, "install:fetch_deployfile")
        assert fetch.parent_id == deploy_serve.span_id

    def test_timestamps_monotonically_consistent(self, deploy_trace):
        spans = {s.span_id: s for s in deploy_trace}
        for span in deploy_trace:
            assert span.end is not None and span.end >= span.start
            parent = spans.get(span.parent_id)
            if parent is not None:
                # children start after their parent and within its window
                assert span.start >= parent.start
                assert span.start <= parent.end

    def test_synchronous_chain_is_time_contained(self, deploy_trace):
        chain = ["rpc:glare-rdm.get_deployments",
                 "serve:glare-rdm.get_deployments",
                 "glare:get_deployments", "tier:on-demand",
                 "deploy:on_demand"]
        spans = [_by_name(deploy_trace, name) for name in chain]
        for parent, child in zip(spans, spans[1:]):
            assert parent.start <= child.start
            assert child.end <= parent.end

    def test_tree_has_single_root(self, deploy_trace):
        index = span_children(deploy_trace)
        known = {s.span_id for s in deploy_trace}
        roots = [s for s in deploy_trace
                 if s.parent_id is None or s.parent_id not in known]
        assert len(roots) == 1
        assert roots[0].name == "rpc:glare-rdm.get_deployments"

    def test_resolution_span_attributes(self, deploy_trace):
        resolve = _by_name(deploy_trace, "glare:get_deployments")
        assert resolve.attrs["tier"] == "on-demand"
        assert resolve.attrs["type"] == "Wien2k"
        assert resolve.attrs["deployments"] >= 1


class TestDeployMetrics:
    def test_rpc_endpoint_histograms(self, deploy_vo):
        registry = deploy_vo.obs.metrics
        latency = registry.histogram("rpc.latency",
                                     endpoint="glare-rdm.get_deployments")
        assert latency.count == 1
        assert 0.0 < latency.p50 <= latency.p95 <= latency.p99

    def test_tier_counter_attribution(self, deploy_vo):
        registry = deploy_vo.obs.metrics
        assert registry.counter("glare.resolutions", tier="on-demand").value == 1

    def test_provisioning_stage_histograms(self, deploy_vo):
        registry = deploy_vo.obs.metrics
        for stage in ("provision.candidate_selection", "provision.transfer",
                      "provision.registration", "provision.notification"):
            histogram = registry.histogram(stage)
            assert histogram.count >= 1, f"{stage} never observed"


class TestScenarios:
    def test_lookup_scenario_contrasts_cache(self):
        vo = run_scenario("lookup")
        resolves = vo.obs.tracer.find("glare:get_deployments")
        assert [s.attrs["tier"] for s in resolves] == ["on-demand", "local"]
        # the cached resolution is orders of magnitude faster
        assert resolves[1].duration < resolves[0].duration / 100

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("bogus")

    def test_a_scenario_that_leaks_a_span_is_rejected(self, monkeypatch):
        def leaky():
            vo = build_vo(n_sites=2, seed=1, monitors=False, observability=True)
            vo.obs.tracer.span("dropped").__enter__()
            return vo

        monkeypatch.setitem(SCENARIOS, "leaky", leaky)
        with pytest.raises(AssertionError,
                           match="'spans-closed': leaked span dropped"):
            run_scenario("leaky")


class TestDisabledObservability:
    def test_default_vo_traces_nothing(self):
        vo = build_vo(n_sites=2, seed=11, monitors=False)
        assert not vo.obs.enabled
        vo.sim.run(until=5.0)
        assert vo.obs.tracer.spans == []
        assert list(vo.obs.metrics.counters()) == []
        assert vo.obs.recorder is None
