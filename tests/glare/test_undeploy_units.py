"""Additional un-deployment unit coverage."""

import pytest

from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="UApp" kind="concrete">'
    "<Domain>x</Domain></ActivityTypeEntry>"
)


@pytest.fixture()
def vo():
    vo = build_vo(n_sites=2, seed=331, monitors=False)
    vo.form_overlay()
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": TYPE_XML}))
    return vo


def add_deployment(vo, name="uapp", home="/opt/deployments/uapp"):
    deployment = ActivityDeployment(
        name=name, type_name="UApp", kind=DeploymentKind.EXECUTABLE,
        site="agrid01", path=f"{home}/bin/{name}", home=home,
        status=DeploymentStatus.ACTIVE,
    )
    vo.stack("agrid01").site.fs.put_file(deployment.path, size=50,
                                         executable=True)
    vo.run_process(vo.client_call(
        "agrid01", "register_deployment",
        payload={"xml": deployment.to_xml().to_string()},
    ))
    return deployment


def test_remove_files_false_keeps_installation(vo):
    deployment = add_deployment(vo)
    out = vo.run_process(vo.client_call(
        "agrid01", "undeploy",
        payload={"key": deployment.key, "remove_files": False},
    ))
    assert out["files_removed"] == 0
    assert deployment.key not in vo.stack("agrid01").adr.deployments
    # the binary survives on disk for manual cleanup / re-registration
    assert vo.stack("agrid01").site.fs.exists(deployment.path)


def test_undeploy_shared_home_removes_siblings_files(vo):
    first = add_deployment(vo, name="tool_a")
    second = add_deployment(vo, name="tool_b")
    vo.run_process(vo.client_call("agrid01", "undeploy",
                                  payload={"key": first.key}))
    fs = vo.stack("agrid01").site.fs
    # removing the home wiped both binaries (documented behaviour) ...
    assert not fs.exists(first.path)
    assert not fs.exists(second.path)
    # ... but only the requested registration was removed
    assert second.key in vo.stack("agrid01").adr.deployments


def test_undeploy_type_with_remove_type(vo):
    add_deployment(vo)
    out = vo.run_process(vo.client_call(
        "agrid01", "undeploy_type",
        payload={"type": "UApp", "remove_type": True},
    ))
    assert out["type_removed"] is True
    assert vo.stack("agrid01").atr.find_type("UApp") is None
    assert vo.stack("agrid01").adr.local_deployments_for("UApp") == []


def test_undeploy_type_no_deployments_is_noop(vo):
    out = vo.run_process(vo.client_call(
        "agrid01", "undeploy_type", payload={"type": "UApp"},
    ))
    assert out["deployments_removed"] == []
    assert out["type_removed"] is False


def test_removed_files_leave_no_dead_replica_behind():
    """register -> rollout -> undeploy(remove_files=True) -> rollout again.

    With replica transfers on, every installed site lists its archive
    copy in the URL catalog; deleting the installation must delist it,
    or the next rollout's Download step picks a file that is gone.
    """
    from repro.apps import get_application, publish_applications
    from repro.glare.provisioning import ProvisioningConfig
    from repro.vo import VOConfig

    vo = build_vo(VOConfig(n_sites=4, seed=332, monitors=False,
                           provisioning=ProvisioningConfig.all_on()))
    publish_applications(vo)
    vo.form_overlay()
    spec = get_application("Wien2k")
    initiator = vo.community_site
    targets = [s for s in vo.site_names if s != initiator]
    vo.run_process(vo.client_call(initiator, "register_type",
                                  payload={"xml": spec.type_xml}))

    def rollout():
        result = vo.run_process(vo.client_call(
            initiator, "rollout",
            payload={"type_xml": spec.type_xml, "target_sites": targets},
        ))
        return {leg["site"]: leg["status"] for leg in result["results"]}

    assert rollout() == dict.fromkeys(targets, "installed")
    catalog = vo.stack(initiator).gridftp.url_catalog

    def listed_copies():
        return [(site, path) for copies in catalog.replicas.values()
                for site, path in copies]

    assert {site for site, _ in listed_copies()} == set(targets)
    for site in targets:
        out = vo.run_process(vo.network.call(
            initiator, site, "glare-rdm", "undeploy_type",
            payload={"type": "Wien2k", "remove_files": True},
        ))
        assert out["deployments_removed"][0]["files_removed"] > 0
    # every deleted copy was delisted (the deploy-file copies outside
    # the removed home are still there, and still listed)
    assert listed_copies()
    assert all(vo.stack(site).site.fs.exists(path) for site, path in listed_copies())
    assert rollout() == dict.fromkeys(targets, "installed")


def test_undeploy_on_the_initiator_leaves_no_stale_cached_copy():
    """rollout -> undeploy_type(initiator) -> rollout reinstalls there.

    The initiator caches what every deploy target registered — itself
    included — so removing its own deployment must drop that same-key
    cached copy too, or ``local_lookup`` keeps answering with it and
    the next rollout reports the site ``present`` with nothing on it.
    """
    from repro.apps import get_application, publish_applications
    from repro.vo import VOConfig

    vo = build_vo(VOConfig(n_sites=4, seed=333, monitors=False))
    publish_applications(vo)
    vo.form_overlay()
    spec = get_application("Wien2k")
    initiator = vo.community_site

    def rollout():
        result = vo.run_process(vo.client_call(
            initiator, "rollout", payload={"type_xml": spec.type_xml},
        ))
        return {leg["site"]: leg["status"] for leg in result["results"]}

    first = rollout()
    assert first[initiator] == "installed"
    vo.run_process(vo.client_call(initiator, "undeploy_type",
                                  payload={"type": "Wien2k"}))
    adr = vo.stack(initiator).adr
    assert adr.local_deployments_for("Wien2k") == []
    assert all(d.site != initiator for d in adr.all_deployments_for("Wien2k"))
    again = rollout()
    assert again[initiator] == "installed"
    assert all(status == "present" for site, status in again.items()
               if site != initiator)
    assert adr.local_deployments_for("Wien2k")
