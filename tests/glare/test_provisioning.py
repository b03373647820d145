"""Unit tests for the Deployment Manager (on-demand provisioning)."""

import pytest

from repro.apps import get_application, publish_applications
from repro.glare.errors import ConstraintViolation, DeploymentFailed
from repro.glare.model import ActivityDeployment, ActivityType
from repro.simkernel import entries
from repro.vo import VOConfig, build_vo

MANUAL_TYPE_XML = (
    '<ActivityTypeEntry name="ManualApp" kind="concrete">'
    "<Domain>x</Domain>"
    '<Installation mode="manual">'
    '<DeployFile url="http://x/manual.build"/></Installation>'
    "</ActivityTypeEntry>"
)

PICKY_TYPE_XML = (
    '<ActivityTypeEntry name="PickyApp" kind="concrete">'
    "<Domain>x</Domain>"
    '<Installation mode="on-demand">'
    "<Constraints><os>Solaris</os></Constraints>"
    '<DeployFile url="http://x/picky.build"/></Installation>'
    "</ActivityTypeEntry>"
)


def make_vo(**kwargs):
    kwargs.setdefault("n_sites", 4)
    kwargs.setdefault("seed", 101)
    kwargs.setdefault("monitors", False)
    vo = build_vo(**kwargs)
    publish_applications(vo)
    vo.form_overlay()
    return vo


class TestConstraints:
    def test_manual_mode_notifies_instead_of_installing(self):
        vo = make_vo()
        rdm = vo.rdm("agrid01")
        at = ActivityType.from_xml(MANUAL_TYPE_XML)

        def run():
            try:
                yield from rdm.deployment_manager.deploy_on_demand(at)
            except DeploymentFailed as error:
                return str(error)

        message = vo.run_process(run())
        assert "administrator notified" in message
        notes = entries(vo.sim.journal, "provisioning", "notify")
        assert notes and notes[0]["reason"].startswith("manual")

    def test_unsatisfiable_constraints_raise(self):
        vo = make_vo()
        rdm = vo.rdm("agrid01")
        at = ActivityType.from_xml(PICKY_TYPE_XML)

        def run():
            try:
                yield from rdm.deployment_manager.deploy_on_demand(at)
            except ConstraintViolation:
                return "violated"

        assert vo.run_process(run()) == "violated"

    def test_constraint_matching_selects_special_site(self):
        """Only the site advertising the custom attribute qualifies."""
        vo = build_vo(VOConfig(n_sites=4, seed=103, monitors=False))
        vo.stack("agrid02").site.description.extra["mpi"] = "openmpi"
        publish_applications(vo)
        vo.form_overlay()
        spec = get_application("Wien2k")
        xml = spec.type_xml.replace(
            "<arch>32bit</arch>", "<arch>32bit</arch><mpi>openmpi</mpi>")
        at = ActivityType.from_xml(xml)
        rdm = vo.rdm("agrid01")

        def run():
            wires = yield from rdm.deployment_manager.deploy_on_demand(at)
            return wires

        wires = vo.run_process(run())
        sites = {ActivityDeployment.from_xml(w["xml"]).site for w in wires}
        assert sites == {"agrid02"}


class TestFailureRelocation:
    def test_offline_candidate_skipped(self):
        """An offline site never becomes an installation target."""
        vo = make_vo(seed=107)
        spec = get_application("Wien2k")
        at = ActivityType.from_xml(spec.type_xml)
        rdm = vo.rdm("agrid01")

        def candidates():
            names = yield from rdm.deployment_manager._candidate_sites(
                at.installation.constraints, None)
            return names

        first = vo.run_process(candidates())[0]
        vo.faults.crash(first)

        def run():
            wires = yield from rdm.deployment_manager.deploy_on_demand(at)
            return wires

        wires = vo.run_process(run())
        sites = {ActivityDeployment.from_xml(w["xml"]).site for w in wires}
        assert first not in sites
        assert rdm.deployment_manager.stats.installs_succeeded == 1

    def test_moves_to_another_site_when_install_fails(self):
        """'If a deployment fails on one site, it can be moved to another.'"""
        vo = make_vo(seed=107)
        spec = get_application("Wien2k")
        at = ActivityType.from_xml(spec.type_xml)
        rdm = vo.rdm("agrid01")

        def candidates():
            names = yield from rdm.deployment_manager._candidate_sites(
                at.installation.constraints, None)
            return names

        first = vo.run_process(candidates())[0]

        # inject a target-side installation failure (disk full) on the
        # first candidate's RDM
        def failing_deploy(message):
            raise DeploymentFailed("disk full on " + first)
            yield  # pragma: no cover - generator marker

        vo.rdm(first).op_deploy = failing_deploy

        def run():
            wires = yield from rdm.deployment_manager.deploy_on_demand(at)
            return wires

        wires = vo.run_process(run())
        sites = {ActivityDeployment.from_xml(w["xml"]).site for w in wires}
        assert first not in sites
        assert rdm.deployment_manager.stats.installs_failed >= 1
        assert rdm.deployment_manager.stats.installs_succeeded == 1
        # the failing site's admin was notified about the failed attempt
        assert any(n["site"] == first
                   for n in entries(vo.sim.journal, "provisioning", "notify"))

    def test_all_sites_failing_raises(self):
        vo = make_vo(seed=109)
        spec = get_application("Wien2k")
        at = ActivityType.from_xml(spec.type_xml)
        rdm = vo.rdm("agrid00")
        for name in vo.site_names:
            if name != "agrid00":
                vo.faults.crash(name)
        # the local site stays up but we exclude it explicitly
        def run():
            try:
                yield from rdm.deployment_manager.deploy_on_demand(
                    at, exclude_sites=("agrid00",))
            except (DeploymentFailed, ConstraintViolation) as error:
                return type(error).__name__

        assert vo.run_process(run()) in ("DeploymentFailed", "ConstraintViolation")


class TestDependencies:
    def test_dependency_already_present_not_reinstalled(self):
        vo = make_vo(seed=113)
        rdm = vo.rdm("agrid01")
        for app in ("Java", "Ant", "JPOVray"):
            spec = get_application(app)
            vo.run_process(vo.client_call(
                "agrid01", "register_type", payload={"xml": spec.type_xml}))

        at = ActivityType.from_xml(get_application("JPOVray").type_xml)

        def run():
            wires = yield from rdm.deployment_manager.deploy_on_demand(at)
            return wires

        wires = vo.run_process(run())
        target = ActivityDeployment.from_xml(wires[0]["xml"]).site
        deps_installed_first = rdm.deployment_manager.stats.dependencies_installed
        assert deps_installed_first == 2  # Java and Ant

        # deploying another Java-dependent app on the same site reuses it
        at_ant = ActivityType.from_xml(get_application("Ant").type_xml)

        def run_ant():
            wires = yield from rdm.deployment_manager.deploy_on_demand(
                at_ant, preferred_site=target)
            return wires

        vo.run_process(run_ant())
        assert (rdm.deployment_manager.stats.dependencies_installed
                == deps_installed_first)  # Java not reinstalled

    def test_unknown_dependency_fails(self):
        vo = make_vo(seed=117)
        rdm = vo.rdm("agrid01")
        xml = (
            '<ActivityTypeEntry name="NeedsGhost" kind="concrete">'
            "<Domain>x</Domain><Dependency>GhostDep</Dependency>"
            '<Installation mode="on-demand">'
            '<DeployFile url="http://x/ghost.build"/></Installation>'
            "</ActivityTypeEntry>"
        )
        vo.publish_deployfile("http://x/ghost.build",
                              '<Build name="g"><Step name="a" task="mkdir-p"/></Build>')
        at = ActivityType.from_xml(xml)

        def run():
            try:
                yield from rdm.deployment_manager.deploy_on_demand(at)
            except DeploymentFailed as error:
                return str(error)

        message = vo.run_process(run())
        assert "GhostDep" in message
