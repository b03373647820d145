"""Operation-level tests for the RDM service's protocol semantics."""

import pytest

from repro.apps import get_application, publish_applications
from repro.glare.errors import DeploymentNotFound, TypeNotFound
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="OpApp" kind="concrete">'
    "<Domain>x</Domain></ActivityTypeEntry>"
)


def make_vo(n_sites=6, group_size=3, seed=241, **kw):
    vo = build_vo(n_sites=n_sites, seed=seed, group_size=group_size,
                  monitors=False, **kw)
    vo.form_overlay()
    return vo


def register_with_deployment(vo, site, name="opapp"):
    vo.run_process(vo.client_call(site, "register_type",
                                  payload={"xml": TYPE_XML}))
    deployment = ActivityDeployment(
        name=name, type_name="OpApp", kind=DeploymentKind.EXECUTABLE,
        site=site, path=f"/opt/deployments/opapp/bin/{name}",
        status=DeploymentStatus.ACTIVE,
    )
    vo.stack(site).site.fs.put_file(deployment.path, size=100, executable=True)
    vo.run_process(vo.client_call(
        site, "register_deployment",
        payload={"xml": deployment.to_xml().to_string()},
    ))
    return deployment


class TestSpLookupSemantics:
    def test_forwarded_request_not_reforwarded(self):
        """Loop prevention: a forwarded sp_lookup stays in the group."""
        vo = make_vo()
        sp = vo.super_peers()[0]
        other_sps = [s for s in vo.super_peers() if s != sp]
        messages_before = {
            s: vo.network.node(s).messages_in for s in other_sps
        }
        vo.run_process(vo.network.call(
            "agrid01", sp, "glare-rdm", "sp_lookup",
            payload={"type": "GhostType", "forwarded": True},
        ))
        # no other super-peer was contacted for a forwarded request
        for s in other_sps:
            assert vo.network.node(s).messages_in == messages_before[s]

    def test_unforwarded_request_reaches_super_group(self):
        vo = make_vo()
        sp = vo.super_peers()[0]
        other_sps = [s for s in vo.super_peers() if s != sp]
        messages_before = {
            s: vo.network.node(s).messages_in for s in other_sps
        }
        vo.run_process(vo.network.call(
            "agrid01", sp, "glare-rdm", "sp_lookup",
            payload={"type": "GhostType", "forwarded": False},
        ))
        assert any(
            vo.network.node(s).messages_in > messages_before[s]
            for s in other_sps
        )


class TestGetDeploymentsOp:
    def test_exclude_sites_at_op_level(self):
        """Excluding the only host yields an error, not stale wires."""
        vo = make_vo()
        register_with_deployment(vo, "agrid01")

        def run():
            try:
                yield from vo.client_call(
                    "agrid02", "get_deployments",
                    payload={"type": "OpApp", "auto_deploy": False,
                             "exclude_sites": ["agrid01"]},
                )
            except DeploymentNotFound:
                return "excluded"

        assert vo.run_process(run()) == "excluded"

    def test_string_payload_shorthand(self):
        vo = make_vo()
        register_with_deployment(vo, "agrid01")
        wires = vo.run_process(vo.client_call("agrid02", "get_deployments",
                                              payload="OpApp"))
        assert len(wires) == 1

    def test_auto_deploy_false_does_not_install(self):
        vo = make_vo()
        publish_applications(vo, ["Wien2k"])
        spec = get_application("Wien2k")
        vo.run_process(vo.client_call("agrid01", "register_type",
                                      payload={"xml": spec.type_xml}))

        def run():
            try:
                yield from vo.client_call(
                    "agrid02", "get_deployments",
                    payload={"type": "Wien2k", "auto_deploy": False},
                )
            except DeploymentNotFound:
                return "no-deploy"

        assert vo.run_process(run()) == "no-deploy"
        # nothing got installed anywhere
        for name in vo.site_names:
            assert vo.stack(name).adr.local_deployments_for("Wien2k") == []


    @pytest.mark.parametrize("group_size", [3, 13])  # groups of 3 | flat
    @pytest.mark.parametrize("cache_enabled", [False, True])
    def test_error_names_what_the_walk_found(self, group_size, cache_enabled):
        """A type a remote site answered with is not "unknown in the VO",
        cache or no cache to retain it: only the deployment is missing."""
        vo = make_vo(n_sites=12, group_size=group_size, seed=51,
                     cache_enabled=cache_enabled)
        vo.run_process(vo.client_call("agrid11", "register_type",
                                      payload={"xml": TYPE_XML}))

        def ask(site, type_name):
            try:
                yield from vo.client_call(
                    site, "get_deployments",
                    payload={"type": type_name, "auto_deploy": False})
            except (TypeNotFound, DeploymentNotFound) as error:
                return type(error)

        assert vo.run_process(ask("agrid01", "OpApp")) is DeploymentNotFound
        assert vo.run_process(ask("agrid11", "OpApp")) is DeploymentNotFound
        assert vo.run_process(ask("agrid01", "NobodyHasIt")) is TypeNotFound


class TestInstantiateOp:
    def test_unknown_deployment_raises(self):
        vo = make_vo()

        def run():
            try:
                yield from vo.client_call(
                    "agrid01", "instantiate",
                    payload={"key": "nowhere:ghost", "demand": 1.0},
                )
            except DeploymentNotFound:
                return "missing"

        assert vo.run_process(run()) == "missing"

    def test_instantiate_service_runs_inline(self):
        vo = make_vo()
        vo.run_process(vo.client_call("agrid01", "register_type",
                                      payload={"xml": TYPE_XML}))
        service_dep = ActivityDeployment(
            name="WS-OpApp", type_name="OpApp", kind=DeploymentKind.SERVICE,
            site="agrid01", endpoint="https://agrid01/wsrf/services/WS-OpApp",
            status=DeploymentStatus.ACTIVE,
        )
        vo.run_process(vo.client_call(
            "agrid01", "register_deployment",
            payload={"xml": service_dep.to_xml().to_string()},
        ))
        gram = vo.network.node("agrid01").services["gram"]
        jobs_before = gram.jobs_submitted
        out = vo.run_process(vo.network.call(
            "agrid02", "agrid01", "glare-rdm", "instantiate",
            payload={"key": service_dep.key, "demand": 1.5},
        ))
        assert out["exit_code"] == 0
        # plain services do not go through GRAM
        assert gram.jobs_submitted == jobs_before

    def test_metrics_visible_to_other_clients(self):
        vo = make_vo()
        deployment = register_with_deployment(vo, "agrid01")
        vo.run_process(vo.network.call(
            "agrid02", "agrid01", "glare-rdm", "instantiate",
            payload={"key": deployment.key, "demand": 2.0},
        ))
        wire = vo.run_process(vo.network.call(
            "agrid03", "agrid01", "activity-deployment-registry",
            "get_deployment", payload=deployment.key,
        ))
        stored = ActivityDeployment.from_xml(wire["xml"])
        assert stored.last_return_code == 0
        assert stored.last_execution_time >= 2.0


class TestRegisterForwarding:
    def test_rdm_register_type_lands_in_atr(self):
        vo = make_vo()
        out = vo.run_process(vo.client_call("agrid01", "register_type",
                                            payload={"xml": TYPE_XML}))
        assert out["registered"] == "OpApp"
        assert "OpApp" in vo.stack("agrid01").atr.local_type_names()

    def test_rdm_register_deployment_lands_in_adr(self):
        vo = make_vo()
        deployment = register_with_deployment(vo, "agrid01")
        assert deployment.key in vo.stack("agrid01").adr.deployments


class TestPickInstallableDecoding:
    """With caching off the gathered wires are decoded on the spot: one
    that does not decode is not a candidate, a bug is not swallowed."""

    INSTALLABLE = (
        '<ActivityTypeEntry name="PickApp" kind="concrete">'
        '<Installation mode="on-demand">'
        '<DeployFile url="gsiftp://origin/pick.xml" md5sum="0"/>'
        "</Installation></ActivityTypeEntry>"
    )
    UNDECODABLE = [
        '<ActivityTypeEntry name="Cut"',                           # XmlParseError
        '<ActivityTypeEntry name="Odd" kind="weird"/>',            # bad enum
        '<ActivityTypeEntry name="Slow"><Benchmark platform="x">fast'
        "</Benchmark></ActivityTypeEntry>",                        # bad float
        "<Build/>",                                                # wrong document
        '<ActivityTypeEntry name="Loop"><BaseType>Loop</BaseType>'
        "</ActivityTypeEntry>",                                    # extends itself
    ]

    def gathered(self):
        wires = [{"xml": xml, "epr": {}} for xml in self.UNDECODABLE]
        wires.append({"xml": self.INSTALLABLE, "epr": {}, "name": "PickApp"})
        return [None, {"types": wires, "deployments": []}]

    def test_undecodable_wires_are_skipped(self):
        manager = make_vo().rdm("agrid01").request_manager
        picked = manager._pick_installable("PickApp", self.gathered())
        assert picked is not None and picked.name == "PickApp"

    def test_a_type_error_propagates(self, monkeypatch):
        def buggy(wire):
            raise TypeError("a bug, not a bad wire")

        monkeypatch.setattr("repro.glare.rdm.type_from_wire", buggy)
        manager = make_vo().rdm("agrid01").request_manager
        with pytest.raises(TypeError, match="a bug"):
            manager._pick_installable("PickApp", self.gathered())
