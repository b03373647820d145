"""Edge cases across the GLARE stack that the main suites skim over."""

import pytest

from repro.experiments.workload import publish_installable_type
from repro.glare.rdm import RDM_SERVICE
from repro.invariants import check_vo_invariants
from repro.net.interceptors import RetryPolicy
from repro.net.network import RpcTimeout
from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="EdgeApp" kind="concrete">'
    "<Domain>x</Domain></ActivityTypeEntry>"
)


class TestKnownSites:
    def test_falls_back_to_overlay_when_community_down(self):
        vo = build_vo(n_sites=4, seed=351, monitors=False)
        vo.form_overlay()
        vo.stack(vo.community_site).site.fail()
        rdm = vo.rdm("agrid01")
        names = vo.run_process(rdm.known_sites())
        # the overlay view still names this site's group + super group
        assert "agrid01" in names
        assert len(names) >= 2

    def test_uses_community_membership_when_up(self):
        vo = build_vo(n_sites=5, seed=353, monitors=False)
        vo.form_overlay()
        names = vo.run_process(vo.rdm("agrid02").known_sites())
        assert sorted(names) == sorted(vo.site_names)


    def test_a_bug_in_the_index_is_not_taken_for_silence(self):
        vo = build_vo(n_sites=4, seed=351, monitors=False)
        vo.form_overlay()

        def broken_list_sites(message):
            raise TypeError("bad membership reply")
            yield

        vo.stack(vo.community_site).index.op_list_sites = broken_list_sites
        with pytest.raises(TypeError, match="bad membership reply"):
            vo.run_process(vo.rdm("agrid01").known_sites())

    def test_a_client_deadline_inside_the_membership_rpc_is_honoured(self):
        """Regression: handlers run in the caller's process, so the
        deadline's interrupt surfaced inside ``known_sites``' broad
        except, which ate it — the call ran on to an "ok" 60x late."""

        def fresh_vo():
            vo = build_vo(n_sites=4, seed=5, monitors=False, lifecycle=False)
            vo.form_overlay()
            publish_installable_type(
                vo, "Late", domain="edge", archive_size=200_000,
                configure_demand=1.0, install_demand=2.0, binary_size=50_000)
            return vo

        def resolve(vo, deadline):
            return vo.network.call(
                "agrid02", "agrid02", RDM_SERVICE, "get_deployments",
                payload={"type": "Late", "auto_deploy": True},
                retry=RetryPolicy.single(deadline))

        # same-seed dry run: when is the community index serving?
        vo, window = fresh_vo(), []
        index = vo.stack(vo.community_site).index
        serve = index.op_list_sites

        def timed(message):
            window.append(vo.sim.now)
            sites = yield from serve(message)
            window.append(vo.sim.now)
            return sites

        index.op_list_sites = timed
        t0 = vo.sim.now
        assert vo.run_process(resolve(vo, 60.0))
        entered, left = window[0] - t0, window[1] - t0
        assert left > entered
        deadline = (entered + left) / 2

        vo = fresh_vo()
        t0 = vo.sim.now
        with pytest.raises(RpcTimeout):
            vo.run_process(resolve(vo, deadline))
        assert vo.sim.now - t0 == pytest.approx(deadline)


class TestInvariantCorruptionDetection:
    def test_overlay_role_mismatch_detected(self):
        vo = build_vo(n_sites=4, seed=357, monitors=False)
        vo.form_overlay()
        assert check_vo_invariants(vo) == []
        # plant: a super-peer whose view points elsewhere
        some_sp = vo.super_peers()[0]
        vo.rdm(some_sp).overlay.view.super_peer = "agrid-bogus"
        violations = check_vo_invariants(vo, check_files=False)
        assert violations  # role/member mismatches reported

    def test_cached_resource_without_source_detected(self):
        vo = build_vo(n_sites=3, seed=359, monitors=False)
        vo.form_overlay()
        vo.run_process(vo.client_call("agrid01", "register_type",
                                      payload={"xml": TYPE_XML}))
        wire = vo.run_process(vo.client_call("agrid02", "lookup_type",
                                             payload="EdgeApp"))
        assert wire is not None
        atr2 = vo.stack("agrid02").atr
        assert "EdgeApp" in atr2.cache.keys()
        atr2.cache_sources.pop("EdgeApp")
        violations = check_vo_invariants(vo, check_files=False)
        assert any("no source" in v for v in violations)


class TestIndexMonitorWithoutIndex:
    def test_tick_skips_missing_index_service(self):
        """A node without an MDS index (e.g. origin) must not crash."""
        from repro.glare.monitors import IndexMonitor

        vo = build_vo(n_sites=2, seed=361, monitors=False)
        rdm = vo.rdm("agrid01")
        vo.network.node("agrid01").services.pop("mds-index")
        monitor = IndexMonitor(rdm, interval=10.0)
        monitor.start()
        vo.sim.run(until=50)
        assert monitor.cycles >= 4  # ticked repeatedly without error


class TestOfflineRdmBehaviour:
    def test_monitor_pauses_while_site_offline(self):
        from repro.glare.monitors import DeploymentStatusMonitor

        vo = build_vo(n_sites=2, seed=367, monitors=False)
        rdm = vo.rdm("agrid01")
        monitor = DeploymentStatusMonitor(rdm, interval=10.0)
        monitor.start()
        vo.stack("agrid01").site.fail()
        vo.sim.run(until=100)
        cycles_while_down = monitor.cycles
        vo.stack("agrid01").site.recover()
        vo.sim.run(until=200)
        assert monitor.cycles > cycles_while_down

    def test_offline_rdm_refuses_client_calls(self):
        from repro.simkernel.errors import OfflineError

        vo = build_vo(n_sites=2, seed=373, monitors=False)
        vo.stack("agrid01").site.fail()

        def client():
            try:
                yield from vo.network.call("agrid00", "agrid01", "glare-rdm",
                                           "ping")
            except OfflineError:
                return "offline"

        assert vo.run_process(client()) == "offline"


class TestGroupSizeExtremes:
    def test_group_size_two(self):
        vo = build_vo(n_sites=6, seed=379, monitors=False, group_size=2)
        groups = vo.form_overlay()
        assert len(groups) == 3
        assert all(len(m) == 2 for m in groups.values())

    def test_group_size_larger_than_vo(self):
        vo = build_vo(n_sites=3, seed=383, monitors=False, group_size=50)
        groups = vo.form_overlay()
        assert len(groups) == 1
        (members,) = groups.values()
        assert sorted(members) == sorted(vo.site_names)
