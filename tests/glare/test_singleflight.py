"""Single-flight installation: concurrent requests don't duplicate."""

import pytest

from repro.apps import get_application, publish_applications
from repro.glare.model import ActivityDeployment
from repro.vo import build_vo


def test_concurrent_requests_share_one_install():
    vo = build_vo(n_sites=4, seed=307, monitors=False)
    publish_applications(vo, ["Invmod"])
    vo.form_overlay()
    spec = get_application("Invmod")
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml}))

    results = []

    def client(index):
        wires = yield from vo.client_call("agrid01", "get_deployments",
                                          payload="Invmod")
        results.append((index, wires))

    # three clients of the SAME local GLARE service fire simultaneously
    for index in range(3):
        vo.sim.process(client(index))
    vo.sim.run(until=vo.sim.now + 600)

    assert len(results) == 3
    keys = {
        ActivityDeployment.from_xml(w["xml"]).key
        for _, wires in results for w in wires
    }
    # exactly one installation happened: one deployment key, everywhere
    assert len(keys) == 1
    rdm = vo.rdm("agrid01")
    assert rdm.deployment_manager.stats.installs_succeeded == 1
    assert rdm.deployment_manager.piggybacked == 2
    # and only one site actually holds Invmod
    holders = [
        name for name in vo.site_names
        if vo.stack(name).adr.local_deployments_for("Invmod")
    ]
    assert len(holders) == 1


def test_piggybackers_see_failures():
    vo = build_vo(n_sites=2, seed=311, monitors=False)
    publish_applications(vo, ["Invmod"])
    vo.form_overlay()
    spec = get_application("Invmod")
    # break the install: unpublish the archive content
    vo.url_catalog.entries.pop(spec.archive_url)
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml}))
    failures = []

    def client(index):
        try:
            yield from vo.client_call("agrid01", "get_deployments",
                                      payload="Invmod")
        except Exception as error:
            failures.append((index, type(error).__name__))

    for index in range(2):
        vo.sim.process(client(index))
    vo.sim.run(until=vo.sim.now + 600)
    assert len(failures) == 2
    # both the leader and the piggybacker surface DeploymentFailed
    assert {name for _, name in failures} == {"DeploymentFailed"}
    rdm = vo.rdm("agrid01")
    assert rdm.deployment_manager.piggybacked == 1
    assert rdm.deployment_manager._flights.in_flight == {}


def test_sequential_requests_do_not_piggyback():
    vo = build_vo(n_sites=3, seed=313, monitors=False)
    publish_applications(vo, ["Wien2k"])
    vo.form_overlay()
    spec = get_application("Wien2k")
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml}))
    vo.run_process(vo.client_call("agrid01", "get_deployments",
                                  payload="Wien2k"))
    vo.run_process(vo.client_call("agrid01", "get_deployments",
                                  payload="Wien2k"))
    rdm = vo.rdm("agrid01")
    assert rdm.deployment_manager.piggybacked == 0
    assert rdm.deployment_manager.stats.installs_succeeded == 1
