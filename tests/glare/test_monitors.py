"""Unit tests for the RDM background monitors (paper §3.2/§3.3)."""

import pytest

from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
)
from repro.glare.monitors import CacheRefresher, DeploymentStatusMonitor, IndexMonitor
from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="MonApp" kind="concrete">'
    "<Domain>x</Domain></ActivityTypeEntry>"
)


def make_vo(**kwargs):
    kwargs.setdefault("n_sites", 3)
    kwargs.setdefault("seed", 71)
    kwargs.setdefault("monitors", False)
    vo = build_vo(**kwargs)
    vo.form_overlay()
    return vo


def register_type_and_deployment(vo, site, name="monapp", path=None):
    vo.run_process(vo.client_call(site, "register_type",
                                  payload={"xml": TYPE_XML}))
    deployment = ActivityDeployment(
        name=name, type_name="MonApp", kind=DeploymentKind.EXECUTABLE,
        site=site, path=path or f"/opt/deployments/monapp/bin/{name}",
        status=DeploymentStatus.ACTIVE,
    )
    vo.run_process(vo.client_call(
        site, "register_deployment",
        payload={"xml": deployment.to_xml().to_string()},
    ))
    return deployment


class TestMonitorRounds:
    def test_offline_node_spends_its_wait_without_ticking(self):
        vo = make_vo()
        monitor = DeploymentStatusMonitor(vo.rdm("agrid01"), interval=10.0)
        monitor.start()
        t0 = vo.sim.now
        vo.stack("agrid01").site.fail()
        vo.sim.run(until=t0 + 25)  # two waits lapse offline
        assert monitor.cycles == 0 and monitor.running
        vo.stack("agrid01").site.recover()
        vo.sim.run(until=t0 + 29)
        assert monitor.cycles == 0  # the third wait was not restarted ...
        vo.sim.run(until=t0 + 31)
        assert monitor.cycles == 1  # ... it ends on the original grid

    def test_phase_is_read_at_start(self):
        vo = make_vo()
        monitor = DeploymentStatusMonitor(vo.rdm("agrid01"), interval=10.0)
        monitor.phase = 4.0  # what rdm.start() does under monitor_jitter
        monitor.start()
        t0 = vo.sim.now
        vo.sim.run(until=t0 + 13.5)
        assert monitor.cycles == 0
        vo.sim.run(until=t0 + 24.5)
        assert monitor.cycles == 2  # t0+14, t0+24: the phase is paid once


class TestDeploymentStatusMonitor:
    def test_missing_executable_flagged_failed(self):
        vo = make_vo()
        deployment = register_type_and_deployment(vo, "agrid01")
        # the executable was never actually installed on disk
        monitor = DeploymentStatusMonitor(vo.rdm("agrid01"), interval=10.0)
        monitor.start()
        vo.sim.run(until=vo.sim.now + 30)
        stored = vo.stack("agrid01").adr.deployments[deployment.key]
        assert stored.status == DeploymentStatus.FAILED
        assert monitor.failures_detected >= 1

    def test_present_executable_stays_active_and_lut_refreshes(self):
        vo = make_vo()
        deployment = register_type_and_deployment(vo, "agrid01")
        vo.stack("agrid01").site.fs.put_file(
            deployment.path, size=1000, executable=True)
        adr = vo.stack("agrid01").adr
        lut_before = adr.home.lookup(deployment.key).last_update_time
        monitor = DeploymentStatusMonitor(vo.rdm("agrid01"), interval=10.0)
        monitor.start()
        vo.sim.run(until=vo.sim.now + 30)
        stored = adr.deployments[deployment.key]
        assert stored.status == DeploymentStatus.ACTIVE
        assert adr.home.lookup(deployment.key).last_update_time > lut_before

    def test_service_deployments_not_checked_on_disk(self):
        vo = make_vo()
        vo.run_process(vo.client_call("agrid01", "register_type",
                                      payload={"xml": TYPE_XML}))
        service_dep = ActivityDeployment(
            name="WS-MonApp", type_name="MonApp", kind=DeploymentKind.SERVICE,
            site="agrid01", endpoint="https://agrid01/wsrf/services/WS-MonApp",
            status=DeploymentStatus.ACTIVE,
        )
        vo.run_process(vo.client_call(
            "agrid01", "register_deployment",
            payload={"xml": service_dep.to_xml().to_string()},
        ))
        monitor = DeploymentStatusMonitor(vo.rdm("agrid01"), interval=10.0)
        monitor.start()
        vo.sim.run(until=vo.sim.now + 30)
        stored = vo.stack("agrid01").adr.deployments[service_dep.key]
        assert stored.status == DeploymentStatus.ACTIVE


class TestCacheRefresher:
    def setup_cached_copy(self, vo):
        """agrid02 resolves (and caches) a type+deployment from agrid01."""
        deployment = register_type_and_deployment(vo, "agrid01")
        vo.stack("agrid01").site.fs.put_file(
            deployment.path, size=1000, executable=True)
        vo.run_process(vo.client_call(
            "agrid02", "get_deployments",
            payload={"type": "MonApp", "auto_deploy": False},
        ))
        adr2 = vo.stack("agrid02").adr
        assert deployment.key in adr2.cached_deployments
        return deployment

    def test_source_update_propagates(self):
        vo = make_vo()
        deployment = self.setup_cached_copy(vo)
        # the source updates the deployment's metrics (LUT bumps)
        vo.sim.run(until=vo.sim.now + 5)
        vo.run_process(vo.client_call(
            "agrid01", "update_status",
            payload={"key": deployment.key, "status": "failed"},
            service="activity-deployment-registry",
        ))
        refresher = CacheRefresher(vo.rdm("agrid02"), interval=15.0)
        refresher.start()
        vo.sim.run(until=vo.sim.now + 40)
        cached = vo.stack("agrid02").adr.cached_deployments[deployment.key]
        assert cached.status == DeploymentStatus.FAILED
        assert refresher.refreshed >= 1

    def test_vanished_source_resource_discarded(self):
        vo = make_vo()
        deployment = self.setup_cached_copy(vo)
        vo.run_process(vo.client_call(
            "agrid01", "remove_deployment", payload=deployment.key,
            service="activity-deployment-registry",
        ))
        refresher = CacheRefresher(vo.rdm("agrid02"), interval=15.0)
        refresher.start()
        vo.sim.run(until=vo.sim.now + 40)
        assert deployment.key not in vo.stack("agrid02").adr.cached_deployments
        assert refresher.discarded >= 1

    def test_unreachable_source_keeps_copy(self):
        """A transiently offline source doesn't evict the cache."""
        vo = make_vo()
        deployment = self.setup_cached_copy(vo)
        vo.stack("agrid01").site.fail()
        refresher = CacheRefresher(vo.rdm("agrid02"), interval=15.0)
        refresher.start()
        vo.sim.run(until=vo.sim.now + 40)
        assert deployment.key in vo.stack("agrid02").adr.cached_deployments


class TestIndexMonitor:
    def test_community_membership_change_triggers_election(self):
        vo = make_vo(n_sites=4)
        coordinator = vo.rdm(vo.community_site)
        elections_before = coordinator.overlay.elections_run
        monitor = IndexMonitor(coordinator, interval=15.0)
        monitor.start()
        vo.sim.run(until=vo.sim.now + 40)
        # first tick: membership differs from the monitor's empty state
        assert coordinator.overlay.elections_run > elections_before
        runs_after_first = coordinator.overlay.elections_run
        vo.sim.run(until=vo.sim.now + 60)
        # stable membership: no further elections
        assert coordinator.overlay.elections_run == runs_after_first

    def test_non_community_site_never_coordinates(self):
        vo = make_vo(n_sites=3)
        plain = vo.rdm("agrid01")
        monitor = IndexMonitor(plain, interval=15.0)
        monitor.start()
        before = plain.overlay.elections_run
        vo.sim.run(until=vo.sim.now + 60)
        assert plain.overlay.elections_run == before

    def test_stop_during_the_probe_rpc_ends_the_monitor(self):
        """Regression: ``tick``'s broad except ate the interrupt, so the
        monitor outlived ``rdm.stop()`` and nothing could reach it."""
        vo = build_vo(n_sites=3, seed=71)
        rdm = vo.rdm("agrid01")
        monitor, = (m for m in rdm._monitors if m.NAME == IndexMonitor.NAME)
        vo.sim.run(until=20.00005)  # the first probe RPC is in flight
        rdm.stop()
        vo.sim.run(until=100.0)
        assert monitor.cycles == 0
        assert not monitor.running

    def test_a_bug_in_the_index_is_not_taken_for_silence(self):
        vo = make_vo()

        def broken_probe(message):
            raise TypeError("bad probe reply")
            yield

        vo.stack("agrid01").index.op_probe = broken_probe
        monitor = IndexMonitor(vo.rdm("agrid01"))
        with pytest.raises(TypeError, match="bad probe reply"):
            vo.run_process(monitor.tick())

    def test_unreachable_index_skips_the_round(self):
        vo = make_vo()
        vo.stack("agrid01").index.admission_limit = 0  # sheds every probe
        monitor = IndexMonitor(vo.rdm("agrid01"))
        assert vo.run_process(monitor.tick()) is None
