"""Tests for the §6 future-work extensions: un-deployment, wrapper
generation, semantic search."""

import pytest

from repro.apps import get_application, publish_applications
from repro.glare.errors import DeploymentNotFound, GlareError
from repro.glare.model import ActivityDeployment
from repro.glare.semantics import SemanticIndex, SemanticQuery, SynonymTable
from repro.vo import build_vo


@pytest.fixture(scope="module")
def vo():
    vo = build_vo(n_sites=3, seed=131, monitors=False)
    publish_applications(vo)
    vo.form_overlay()
    spec = get_application("Wien2k")
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml}))
    return vo


def deploy_wien2k(vo):
    # drop any cached references left by earlier tests (a prior
    # un-deployment leaves remote caches stale until the refresher runs)
    adr = vo.stack("agrid01").adr
    for key in list(adr.cached_deployments):
        adr.drop_cached(key)
    wires = vo.run_process(vo.client_call("agrid01", "get_deployments",
                                          payload="Wien2k"))
    return [ActivityDeployment.from_xml(w["xml"]) for w in wires]


class TestUndeploy:
    def test_undeploy_removes_registry_entry_and_files(self, vo):
        deployments = deploy_wien2k(vo)
        target = deployments[0]
        site_fs = vo.stack(target.site).site.fs
        assert site_fs.exists(target.path)

        out = vo.run_process(
            _call(vo, target.site, "undeploy", {"key": target.key})
        )
        assert out["undeployed"] == target.key
        assert out["files_removed"] > 0
        assert target.key not in vo.stack(target.site).adr.deployments
        assert not site_fs.exists(target.path)

    def test_undeploy_unknown_raises(self, vo):
        def run():
            try:
                yield from vo.client_call("agrid01", "undeploy",
                                          payload={"key": "nope:ghost"})
            except DeploymentNotFound:
                return "missing"

        assert vo.run_process(run()) == "missing"

    def test_undeploy_type_removes_all(self, vo):
        deployments = deploy_wien2k(vo)  # re-deploys after the first test
        site = deployments[0].site
        out = vo.run_process(_call(vo, site, "undeploy_type",
                                   {"type": "Wien2k", "remove_type": False}))
        assert len(out["deployments_removed"]) >= 1
        assert vo.stack(site).adr.local_deployments_for("Wien2k") == []
        # the type registration survives (remove_type=False)
        assert out["type_removed"] is False


class TestWrapperGeneration:
    def test_wrap_executable_creates_service(self, vo):
        deployments = deploy_wien2k(vo)
        executable = next(d for d in deployments if d.kind.value == "executable")
        site = executable.site
        out = vo.run_process(_call(vo, site, "generate_wrapper", executable.key))
        wrapper_key = out["wrapper"]
        adr = vo.stack(site).adr
        wrapper = adr.deployments[wrapper_key]
        assert wrapper.kind.value == "service"
        assert wrapper.endpoint.startswith("https://")
        assert wrapper.type_name == executable.type_name

        # instantiating the wrapper runs the legacy binary via GRAM
        gram = vo.network.node(site).services["gram"]
        jobs_before = gram.jobs_submitted
        outcome = vo.run_process(_call(vo, site, "instantiate",
                                       {"key": wrapper_key, "demand": 2.0}))
        assert outcome["exit_code"] == 0
        assert gram.jobs_submitted == jobs_before + 1

    def test_wrapping_service_rejected(self, vo):
        # the previous test left a wrapper service registered; trying to
        # wrap the wrapper itself must fail
        service_key = next(
            key for key, d in vo.stack("agrid00").adr.deployments.items()
            if d.kind.value == "service"
        )

        def run():
            try:
                yield from vo.network.call(
                    "agrid01", "agrid00", "glare-rdm", "generate_wrapper",
                    payload=service_key,
                )
            except GlareError:
                return "rejected"

        assert vo.run_process(run()) == "rejected"

    def test_wrap_unknown_raises(self, vo):
        def run():
            try:
                yield from vo.client_call("agrid01", "generate_wrapper",
                                          payload="ghost:key")
            except DeploymentNotFound:
                return "missing"

        assert vo.run_process(run()) == "missing"


class TestSemanticSearch:
    @pytest.fixture()
    def populated_vo(self):
        from repro.apps import register_application, register_base_hierarchy

        vo = build_vo(n_sites=2, seed=137, monitors=False)
        publish_applications(vo)
        vo.form_overlay()
        vo.run_process(register_base_hierarchy(vo, "agrid00"))
        for app in ("JPOVray", "Wien2k", "ImageViewer"):
            vo.run_process(register_application(vo, "agrid00", app))
        return vo

    def test_search_by_function_synonym(self, populated_vo):
        vo = populated_vo
        matches = vo.run_process(vo.client_call(
            "agrid00", "semantic_lookup",
            payload={"function": "convert", "inputs": ["scene"]},
        ))
        assert matches
        assert matches[0]["type"] == "JPOVray"

    def test_search_by_outputs(self, populated_vo):
        vo = populated_vo
        matches = vo.run_process(vo.client_call(
            "agrid00", "semantic_lookup",
            payload={"function": "render", "outputs": ["picture"]},
        ))
        assert [m["type"] for m in matches] == ["JPOVray"]

    def test_unmatchable_query_empty(self, populated_vo):
        vo = populated_vo
        matches = vo.run_process(vo.client_call(
            "agrid00", "semantic_lookup",
            payload={"function": "teleport"},
        ))
        assert matches == []

    def test_domain_boosts_score(self):
        from repro.glare.hierarchy import TypeHierarchy
        from repro.glare.model import ActivityFunction, ActivityType, TypeKind

        h = TypeHierarchy()
        for name, domain in [("A", "imaging"), ("B", "physics")]:
            h.add(ActivityType(
                name=name, kind=TypeKind.CONCRETE, domain=domain,
                functions=[ActivityFunction("run", ["data"], ["out"])],
            ))
        index = SemanticIndex(h)
        matches = index.search(SemanticQuery(function="run", domain="imaging"))
        assert [m.type_name for m in matches] == ["A", "B"]
        assert matches[0].score > matches[1].score

    def test_synonym_table(self):
        table = SynonymTable()
        assert table.same("render", "CONVERT")
        assert table.same("image", "bitmap")
        assert not table.same("render", "display")
        custom = SynonymTable(rings=[{"foo", "bar"}])
        assert custom.same("foo", "bar")
        assert not custom.same("render", "convert")  # defaults replaced


def _call(vo, site, method, payload):
    def run():
        value = yield from vo.network.call("agrid01", site, "glare-rdm",
                                           method, payload=payload)
        return value

    return run()
