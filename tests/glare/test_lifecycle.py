"""Unit tests for lifecycle control: expiry cascade, limits (paper §3.3)."""

import pytest

from repro.glare.errors import DeploymentFailed
from repro.experiments.workload import placed
from repro.glare.lifecycle import LifecycleController
from repro.invariants import audit
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="Ephemeral" kind="concrete">'
    "<Domain>x</Domain></ActivityTypeEntry>"
)


def make_vo():
    vo = build_vo(n_sites=2, seed=81, monitors=False, lifecycle=False)
    vo.form_overlay()
    return vo


def register(vo, site="agrid01", dep_name="eph"):
    vo.run_process(vo.client_call(site, "register_type",
                                  payload={"xml": TYPE_XML}))
    deployment = ActivityDeployment(
        name=dep_name, type_name="Ephemeral", kind=DeploymentKind.EXECUTABLE,
        site=site, path=f"/opt/deployments/eph/bin/{dep_name}",
        status=DeploymentStatus.ACTIVE,
    )
    vo.run_process(vo.client_call(
        site, "register_deployment",
        payload={"xml": placed(vo, deployment).to_xml().to_string()},
    ))
    return deployment


class TestExpiryCascade:
    def test_type_expiry_removes_deployments(self):
        vo = make_vo()
        deployment = register(vo)
        controller = LifecycleController(vo.rdm("agrid01"), sweep_interval=5.0)
        controller.start()
        controller.expire_type_at("Ephemeral", vo.sim.now + 20.0)
        vo.sim.run(until=vo.sim.now + 40)
        atr = vo.stack("agrid01").atr
        adr = vo.stack("agrid01").adr
        assert atr.find_type("Ephemeral") is None
        assert deployment.key not in adr.deployments
        assert controller.cascaded_expiries == 1

    def test_deployment_expiry_leaves_type(self):
        vo = make_vo()
        deployment = register(vo)
        controller = LifecycleController(vo.rdm("agrid01"), sweep_interval=5.0)
        controller.start()
        resource = vo.stack("agrid01").adr.home.lookup(deployment.key)
        resource.set_termination_time(vo.sim.now + 10.0)
        vo.sim.run(until=vo.sim.now + 30)
        assert vo.stack("agrid01").atr.find_type("Ephemeral") is not None
        assert deployment.key not in vo.stack("agrid01").adr.deployments

    def test_revoke_type_is_immediate(self):
        vo = make_vo()
        deployment = register(vo)
        controller = LifecycleController(vo.rdm("agrid01"))
        # a revocation: the type expires now and one sweep collects it
        controller.expire_type_at("Ephemeral", vo.sim.now)
        controller.lifetime.sweep_now()
        assert vo.stack("agrid01").atr.find_type("Ephemeral") is None
        assert deployment.key not in vo.stack("agrid01").adr.deployments

    def test_expire_unknown_type_raises(self):
        vo = make_vo()
        controller = LifecycleController(vo.rdm("agrid01"))
        with pytest.raises(KeyError):
            controller.expire_type_at("Ghost", 100.0)

    def test_no_expiry_without_termination_time(self):
        vo = make_vo()
        deployment = register(vo)
        controller = LifecycleController(vo.rdm("agrid01"), sweep_interval=5.0)
        controller.start()
        vo.sim.run(until=vo.sim.now + 200)
        assert vo.stack("agrid01").atr.find_type("Ephemeral") is not None
        assert deployment.key in vo.stack("agrid01").adr.deployments


class TestExpiryIsTheRegistrysRemoval:
    """Expiry goes through the registries' one unpublish path, so it
    leaves exactly what an explicit removal leaves."""

    def test_expired_deployment_is_not_resolved_from_the_sites_own_cache(self):
        """Regression: the deploy initiator caches what the target
        registered; when the target is the initiator itself, that
        same-key cached copy kept resolving the deployment after its
        WSRF lifetime had expired (the reconciler's scale-in path)."""
        from repro.apps import get_application, publish_applications
        from repro.glare.errors import DeploymentNotFound

        vo = build_vo(n_sites=3, seed=7, monitors=False)
        publish_applications(vo, ["Counter"])
        vo.form_overlay()
        vo.run_process(vo.client_call(
            "agrid00", "register_type",
            payload={"xml": get_application("Counter").type_xml}))
        wires = vo.run_process(vo.client_call(
            "agrid00", "get_deployments", payload="Counter"))
        key = wires[0]["epr"]["key"]
        adr = vo.stack("agrid00").adr
        assert key in adr.deployments and key in adr.cached_deployments
        vo.run_process(vo.client_call(
            "agrid00", "set_deployment_lifetime",
            payload={"key": key, "at": vo.sim.now + 2.0}))
        vo.sim.run(until=vo.sim.now + 30)  # the lifecycle sweep runs
        assert adr.deployments == {} and adr.home.lookup(key) is None
        assert key not in adr.cached_deployments
        with pytest.raises(DeploymentNotFound):
            vo.run_process(vo.client_call(
                "agrid00", "get_deployments",
                payload={"type": "Counter", "auto_deploy": False}))
        assert audit(vo.network) == []

    def test_type_expiry_publishes_the_removed_event(self):
        from repro.glare.registry import ATR_SERVICE
        from repro.wsrf.notification import NotificationSink

        vo = make_vo()
        sink = NotificationSink(vo.network, "agrid00", name="watcher")
        vo.run_process(vo.network.call(
            "agrid00", "agrid01", ATR_SERVICE, "subscribe",
            payload={"sink_site": "agrid00", "sink_service": "watcher"},
        ))
        register(vo)
        controller = LifecycleController(vo.rdm("agrid01"), sweep_interval=5.0)
        controller.start()
        controller.expire_type_at("Ephemeral", vo.sim.now + 10.0)
        vo.sim.run(until=vo.sim.now + 30)
        assert [e["event"] for e in sink.received] == ["registered", "removed"]
        assert audit(vo.network) == []


def _failing_minimums(monkeypatch, error):
    """A controller keeping one Wien2k deployment whose every install
    raises ``error``; returns ``(vo, controller, install attempt times)``."""
    from repro.apps import get_application, publish_applications

    vo = build_vo(n_sites=3, seed=83, monitors=False, lifecycle=False)
    publish_applications(vo, ["Wien2k"])
    vo.form_overlay()
    xml = get_application("Wien2k").type_xml.replace(
        "</ActivityTypeEntry>",
        '<DeploymentLimits min="1"/></ActivityTypeEntry>')
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": xml}))
    attempts = []

    def deploy_on_demand(activity_type):
        attempts.append(vo.sim.now)
        yield vo.sim.timeout(1.0)
        raise error

    rdm = vo.rdm("agrid01")
    monkeypatch.setattr(rdm.deployment_manager, "deploy_on_demand",
                        deploy_on_demand)
    controller = LifecycleController(rdm, min_check_interval=30.0,
                                     ensure_minimums=True)
    controller.start()
    return vo, controller, attempts


class TestMinimumDeployments:
    def test_a_failed_install_is_retried_next_cycle(self, monkeypatch):
        vo, controller, attempts = _failing_minimums(
            monkeypatch, DeploymentFailed("no candidate site"))
        vo.sim.run(until=vo.sim.now + 100)
        assert len(attempts) == 3
        assert controller.minimum_repairs == 0 and controller.minimums.running

    def test_a_bug_in_the_install_propagates(self, monkeypatch):
        """Only what a client can be told is absorbed; a ``TypeError``
        inside the install is a bug and fails the run."""
        vo, _controller, _attempts = _failing_minimums(
            monkeypatch, TypeError("bad call"))
        with pytest.raises(TypeError, match="bad call"):
            vo.sim.run(until=vo.sim.now + 100)

    def test_minimum_repair_reinstalls(self):
        from repro.apps import get_application, publish_applications

        vo = build_vo(n_sites=3, seed=83, monitors=False, lifecycle=False)
        publish_applications(vo, ["Wien2k"])
        vo.form_overlay()
        spec = get_application("Wien2k")
        # register with a minimum of one deployment
        xml = spec.type_xml.replace(
            "</ActivityTypeEntry>",
            '<DeploymentLimits min="1"/></ActivityTypeEntry>')
        vo.run_process(vo.client_call("agrid01", "register_type",
                                      payload={"xml": xml}))
        controller = LifecycleController(
            vo.rdm("agrid01"), min_check_interval=30.0, ensure_minimums=True)
        controller.start()
        vo.sim.run(until=vo.sim.now + 120)
        # the minimum-maintenance loop installed Wien2k somewhere
        assert controller.minimum_repairs >= 1
        adr = vo.stack("agrid01").adr
        assert len(adr.all_deployments_for("Wien2k")) >= 1
