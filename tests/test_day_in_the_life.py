"""Capstone integration: a full day in the life of a GLARE VO.

Eight sites, all monitors running, several applications registered by
different providers, workflows running from different home sites, a
super-peer crash in the middle — and at the end the VO must be healthy
by the global invariant sweep and shut down clean.
"""

import pytest

from repro.apps import (
    publish_applications,
    register_application,
    register_base_hierarchy,
)
from repro.glare.model import ActivityDeployment, ActivityType
from repro.invariants import audit
from repro.vo import build_vo
from repro.workflow import Workflow
from repro.workflow.enactment import run_workflow
from repro.wsrf import xmldoc
from repro.wsrf.xmldoc import parse_xml


@pytest.mark.slow
def test_day_in_the_life():
    xmldoc._SHARED.clear()  # what this day decodes, nothing older
    vo = build_vo(n_sites=8, seed=400, monitors=True, group_size=3)
    publish_applications(vo)
    groups = vo.form_overlay()
    assert len(groups) == 3

    # Providers on different sites register different applications.
    vo.run_process(register_base_hierarchy(vo, "agrid01"))
    vo.run_process(register_application(vo, "agrid01", "JPOVray"))
    vo.run_process(register_application(vo, "agrid02", "Java"))
    vo.run_process(register_application(vo, "agrid02", "Ant"))
    vo.run_process(register_application(vo, "agrid03", "Wien2k"))
    vo.run_process(register_application(vo, "agrid04", "ImageViewer"))

    # A client resolves Wien2k (cross-group discovery + auto-install).
    wires = vo.run_process(vo.client_call("agrid06", "get_deployments",
                                          payload="Wien2k"))
    assert wires
    wien2k_site = ActivityDeployment.from_xml(wires[0]["xml"]).site

    # The Fig. 1 workflow runs from yet another site, pulling in
    # JPOVray + Java + Ant + ImageViewer on demand.
    wf = Workflow.povray_example()
    result, schedule = vo.run_process(run_workflow(vo, wf, "agrid07"))
    assert result.success, result.error

    # Mid-day disaster: one super-peer dies.
    victim = next(sp for sp, members in groups.items() if len(members) >= 3)
    survivors = [m for m in groups[victim] if m != victim]
    vo.faults.crash(victim)
    vo.sim.run(until=vo.sim.now + 180)  # detection + re-election + refresh

    # The surviving group re-elected and keeps serving.
    new_sp = vo.rdm(survivors[0]).overlay.view.super_peer
    assert new_sp != victim

    # Another workflow still completes (possibly remapping around the
    # dead site).
    wf2 = Workflow("evening")
    from repro.workflow import ActivityNode

    wf2.add(ActivityNode("render", "ImageConversion", demand=3.0))
    result2, _ = vo.run_process(run_workflow(vo, wf2, survivors[0]))
    assert result2.success, result2.error

    # Let the monitors settle, then sweep the global invariants.
    vo.sim.run(until=vo.sim.now + 120)
    assert audit(vo.network) == []

    # Sanity: instantiation still works against the earlier install.
    if vo.stack(wien2k_site).site.online:
        deployment = ActivityDeployment.from_xml(wires[0]["xml"])
        outcome = vo.run_process(vo.network.call(
            "agrid06", wien2k_site, "glare-rdm", "instantiate",
            payload={"key": deployment.key, "demand": 1.0},
        ))
        assert outcome["exit_code"] == 0

    # Closing time: every background loop stops and nothing is left.
    vo.network.stop()
    vo.sim.run()
    assert audit(vo.network) == []  # now with the shutdown clauses

    # Every receiver of a wire document reads one shared parse of it
    # (registry cache entries even keep it): nobody edited one, or
    # grafted one into a tree of their own.  The same holds for the one
    # type or deployment every cache of the document shares.
    assert xmldoc._SHARED
    decoded = 0
    for text, shared in xmldoc._SHARED.items():
        assert shared.root.to_string() == parse_xml(text).to_string()
        assert shared.root.parent is None
        item = shared.compiled
        if type(item) in (ActivityType, ActivityDeployment):
            assert vars(item) == vars(type(item).from_wire_xml(text))
            decoded += 1
    assert decoded


def test_invariants_detect_corruption():
    """The audit actually catches planted inconsistencies."""
    vo = build_vo(n_sites=3, seed=401, monitors=False)
    vo.form_overlay()
    type_xml = ('<ActivityTypeEntry name="Inv" kind="concrete">'
                "<Domain>x</Domain></ActivityTypeEntry>")
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": type_xml}))
    from repro.glare.model import DeploymentKind, DeploymentStatus

    deployment = ActivityDeployment(
        name="inv", type_name="Inv", kind=DeploymentKind.EXECUTABLE,
        site="agrid01", path="/opt/deployments/inv/bin/inv",
        status=DeploymentStatus.ACTIVE,
    )
    vo.stack("agrid01").site.fs.put_file(deployment.path, size=1,
                                         executable=True)
    vo.run_process(vo.client_call(
        "agrid01", "register_deployment",
        payload={"xml": deployment.to_xml().to_string()},
    ))
    assert audit(vo.network) == []

    # plant corruption: delete the binary behind an ACTIVE deployment
    vo.stack("agrid01").site.fs.remove_file(deployment.path)
    assert [(v.plane, v.clause) for v in audit(vo.network)] == [
        ("glare-rdm@agrid01", "active-on-disk")]

    # plant corruption: orphan by_type entry
    vo.stack("agrid01").site.fs.put_file(deployment.path, size=1,
                                         executable=True)
    vo.stack("agrid01").adr.by_type["Inv"].append("ghost:key")
    assert [(v.plane, v.clause) for v in audit(vo.network)] == [
        ("activity-deployment-registry@agrid01", "by-type-known")]
