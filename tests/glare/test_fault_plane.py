"""Unit + integration tests for the VO-wide fault plane.

Covers the declarative scenario knobs (crash schedules, churn rounds,
link loss, partitions, per-service error rules), the GridFTP
delegation, and the headline self-management story: crash a super-peer
through the plane and watch the overlay detect, vote and re-elect.
"""

import pytest

from repro.faults import (
    CrashSpec,
    FaultPlane,
    FaultsConfig,
    LinkRule,
    PartitionSpec,
    ServiceErrorRule,
)
from repro.net.interceptors import RemoteError
from repro.net.network import Network
from repro.simkernel import entries
from repro.simkernel.errors import OfflineError
from repro.vo import VOConfig, build_vo


def make_vo(faults=None, n_sites=6, seed=11, **kwargs):
    kwargs.setdefault("monitors", False)
    kwargs.setdefault("lifecycle", False)
    vo = build_vo(VOConfig(n_sites=n_sites, seed=seed, faults=faults, **kwargs))
    return vo


def is_bare_transport(vo):
    """Whether a plain call on ``vo`` is the transport stage itself."""
    call = vo.network.call(vo.site_names[0], vo.site_names[1], "glare-rdm", "ping")
    call.close()
    return call.gi_code is Network._transport.__code__


class TestPlaneLifecycle:
    def test_disabled_by_default(self):
        vo = make_vo()
        assert not vo.faults.enabled
        assert vo.network.faults is vo.faults
        assert is_bare_transport(vo)

    def test_enabled_plane_fails_a_lossy_link_before_the_source_check(self):
        """A lost link burns the connection timeout, then is unreachable —
        drawn first thing in the transport, ahead of the source-online check."""
        vo = make_vo(faults=FaultsConfig(links=(LinkRule(loss=1.0),)))
        assert vo.faults.enabled
        assert is_bare_transport(vo)  # nothing wraps it: the transport draws
        src, dst = vo.site_names[1], vo.site_names[2]
        vo.network.set_online(src, False)
        start = vo.sim.now

        def caller():
            try:
                yield from vo.network.call(src, dst, "glare-rdm", "ping")
            except OfflineError as error:
                return (vo.sim.now - start, str(error))

        elapsed, message = vo.run_process(caller())
        assert elapsed == pytest.approx(vo.network.connect_fail_delay)
        # the link's verdict, not "source node ... is offline"
        assert message == f"link fault: {src!r} -> {dst!r} dropped"

    def test_empty_config_counts_as_disabled(self):
        vo = make_vo(faults=FaultsConfig())
        assert not vo.faults.enabled


class TestCrashSchedules:
    def test_crash_and_restart_at_configured_times(self):
        vo = make_vo(faults=FaultsConfig(
            crashes=(CrashSpec(site="agrid02", at=10.0, down_for=5.0),)
        ))
        vo.sim.run(until=12.0)
        assert not vo.network.is_online("agrid02")
        vo.sim.run(until=20.0)
        assert vo.network.is_online("agrid02")
        kinds = [(e["kind"], e["site"], e["at"])
                 for e in entries(vo.sim.journal, "faults")]
        assert kinds == [("crash", "agrid02", 10.0), ("restart", "agrid02", 15.0)]
        assert vo.faults.crashes_induced == 1

    def test_permanent_crash(self):
        vo = make_vo(faults=FaultsConfig(
            crashes=(CrashSpec(site="agrid03", at=5.0),)
        ))
        vo.sim.run(until=100.0)
        assert not vo.network.is_online("agrid03")

    def test_churn_selector_drives_victim_choice(self):
        vo = make_vo(faults=FaultsConfig(churn_times=(5.0, 15.0),
                                         churn_downtime=4.0))
        victims = iter(["agrid04", "agrid01"])
        vo.faults.churn_selector = lambda: next(victims)
        vo.sim.run(until=6.0)
        assert not vo.network.is_online("agrid04")
        vo.sim.run(until=16.0)
        assert vo.network.is_online("agrid04")  # restarted after 4s
        assert not vo.network.is_online("agrid01")
        crashed = [e["site"] for e in entries(vo.sim.journal, "faults", "crash")]
        assert crashed == ["agrid04", "agrid01"]

    def test_churn_round_skipped_when_selector_returns_none(self):
        vo = make_vo(faults=FaultsConfig(churn_times=(5.0,)))
        vo.faults.churn_selector = lambda: None
        vo.sim.run(until=10.0)
        assert [e["kind"] for e in entries(vo.sim.journal, "faults")] == ["churn-skip"]
        assert vo.faults.crashes_induced == 0

    def test_default_victim_draw_is_deterministic(self):
        def crashed_sites(seed):
            vo = make_vo(seed=seed, faults=FaultsConfig(churn_times=(5.0, 10.0),
                                                        churn_downtime=2.0))
            vo.sim.run(until=20.0)
            return [e["site"] for e in entries(vo.sim.journal, "faults", "crash")]

        assert crashed_sites(11) == crashed_sites(11)

    def test_default_victim_draw_crashes_only_members(self):
        """The origin download host is a node but no VO member: churn
        never takes it down (15 of these 40 runs used to)."""
        crashed = set()
        for seed in range(40):
            vo = make_vo(n_sites=4, seed=seed, faults=FaultsConfig(
                churn_times=(5.0, 10.0, 15.0), churn_downtime=1.0))
            vo.sim.run(until=20.0)
            crashed |= {e["site"] for e in entries(vo.sim.journal, "faults", "crash")}
        assert crashed == set(vo.site_names)


class TestLinkFaults:
    def test_partition_window_splits_the_vo(self):
        vo = make_vo(faults=FaultsConfig(partitions=(
            PartitionSpec(start=5.0, end=15.0, group=("agrid01", "agrid02")),
        )))
        vo.sim.run(until=6.0)

        def attempt(src, dst):
            try:
                yield from vo.network.call(src, dst, "mds-index", "probe")
                return "ok"
            except OfflineError:
                return "cut"

        # across the partition boundary: cut both ways
        assert vo.run_process(attempt("agrid01", "agrid03")) == "cut"
        assert vo.run_process(attempt("agrid03", "agrid02")) == "cut"
        # within one side: fine
        assert vo.run_process(attempt("agrid01", "agrid02")) == "ok"
        assert vo.run_process(attempt("agrid03", "agrid04")) == "ok"
        assert vo.faults.link_faults_injected == 2
        # after the window closes the paths heal
        vo.sim.run(until=16.0)
        assert vo.run_process(attempt("agrid01", "agrid03")) == "ok"

    def test_link_loss_is_seeded_and_counted(self):
        def outcomes(seed):
            vo = make_vo(seed=seed, faults=FaultsConfig(
                links=(LinkRule(loss=0.5, src="agrid01", dst="agrid02"),)
            ))
            results = []

            def attempt():
                try:
                    yield from vo.network.call(
                        "agrid01", "agrid02", "mds-index", "probe")
                    results.append("ok")
                except OfflineError:
                    results.append("drop")

            for _ in range(12):
                vo.run_process(attempt())
            return results, vo.faults.link_faults_injected

        first, injected = outcomes(13)
        again, _ = outcomes(13)
        assert first == again
        assert injected == first.count("drop") > 0

    def test_unmatched_traffic_unaffected(self):
        vo = make_vo(faults=FaultsConfig(
            links=(LinkRule(loss=1.0, src="agrid01", dst="agrid02"),)
        ))

        def attempt():
            value = yield from vo.network.call(
                "agrid03", "agrid04", "mds-index", "probe")
            return value

        assert vo.run_process(attempt()) is not None
        assert vo.faults.link_faults_injected == 0


class TestServiceErrorRules:
    def test_error_type_name_survives_the_wire(self):
        vo = make_vo(faults=FaultsConfig(service_errors=(
            ServiceErrorRule(service="mds-index", method="probe", rate=1.0,
                             error="IndexMeltdown"),
        )))

        def attempt():
            try:
                yield from vo.network.call(
                    "agrid01", "agrid02", "mds-index", "probe")
            except RemoteError as error:
                return error

        error = vo.run_process(attempt())
        assert error.error_type == "IndexMeltdown"
        assert error.transient  # synthetic faults are FaultInjected subclasses
        assert vo.faults.service_errors_injected == 1

    def test_method_filter_scopes_the_rule(self):
        vo = make_vo(faults=FaultsConfig(service_errors=(
            ServiceErrorRule(service="mds-index", method="list_sites", rate=1.0),
        )))

        def other_method():
            value = yield from vo.network.call(
                "agrid01", "agrid02", "mds-index", "probe")
            return value

        vo.run_process(other_method())  # must not raise
        assert vo.faults.service_errors_injected == 0


class TestGridFtpDelegation:
    def test_transfer_faults_draw_through_the_plane(self):
        """The legacy failure_rate knob counts on the shared plane."""
        vo = make_vo(seed=37)
        gridftp = vo.stack("agrid01").gridftp
        gridftp.failure_rate = 0.9
        vo.origin.fs.put_file("/www/blob.tgz", size=10_000)
        vo.url_catalog.publish("http://x/blob.tgz", "origin", "/www/blob.tgz")

        def fetch():
            try:
                yield from gridftp.fetch_url(
                    "http://x/blob.tgz", "/tmp/blob.tgz")
                return "ok"
            except Exception:
                return "failed"

        vo.run_process(fetch())
        assert vo.faults.transfer_faults_injected >= 1

    def test_zero_rate_never_touches_the_rng(self):
        vo = make_vo()
        plane = vo.faults
        assert plane.transfer_fault("agrid01", "/p", 0.0) is False
        assert "gridftp-fail:agrid01:/p" not in vo.sim.rng._streams


class TestSuperPeerCrashRecovery:
    """Satellite: the §3.4 story end-to-end through the fault plane."""

    def _overlay_vo(self, probe_interval=8.0, seed=23):
        vo = make_vo(
            n_sites=8, seed=seed, group_size=4, cache_enabled=False,
            faults=FaultsConfig(churn_times=(30.0,), churn_downtime=200.0),
        )
        for name in vo.site_names:
            vo.rdm(name).overlay.probe_interval = probe_interval
        groups = vo.form_overlay()
        # crash the super-peer of a group that does not hold the VO root
        eligible = sorted(sp for sp in groups
                          if vo.community_site not in groups[sp])
        victim = eligible[0]
        vo.faults.churn_selector = lambda: victim
        return vo, victim, sorted(groups[victim])

    def test_crash_triggers_verified_takeover(self):
        vo, victim, members = self._overlay_vo()
        epoch_before = max(vo.rdm(m).overlay.view.epoch
                           for m in members if m != victim)
        vo.sim.run(until=80.0)

        assert not vo.network.is_online(victim)
        reelections = sum(vo.rdm(n).overlay.reelections for n in vo.site_names)
        assert reelections == 1
        survivors = [m for m in members if m != victim]
        new_sp = {vo.rdm(m).overlay.view.super_peer for m in survivors}
        assert len(new_sp) == 1 and victim not in new_sp
        leader = new_sp.pop()
        # the takeover bumped the epoch and was logged with the victim
        view = vo.rdm(leader).overlay.view
        assert view.epoch > epoch_before
        log = entries(vo.sim.journal, "overlay", "takeover")
        assert len(log) == 1 and log[0]["site"] == leader
        assert log[0]["missing"] == victim
        assert log[0]["epoch"] == view.epoch
        # other groups learned the new super-peer list (the crashed
        # victim keeps its stale pre-crash view and is skipped)
        for name in vo.site_names:
            overlay = vo.rdm(name).overlay
            if overlay.is_super_peer and name not in (leader, victim):
                assert leader in overlay.view.super_peers
                assert victim not in overlay.view.super_peers

    def test_crash_and_takeover_are_journaled_without_observability(self):
        vo, victim, members = self._overlay_vo()
        assert vo.obs.health is None and vo.obs.slo is None
        vo.sim.run(until=80.0)
        story = [(e["plane"], e["kind"]) for e in vo.sim.journal]
        assert story == [("faults", "crash"), ("overlay", "takeover")]
        crash, takeover = vo.sim.journal
        assert crash["site"] == takeover["missing"] == victim
        assert crash["at"] < takeover["at"]

    def test_stale_group_assign_rejected_after_takeover(self):
        vo, victim, members = self._overlay_vo()
        vo.sim.run(until=80.0)
        survivors = [m for m in members if m != victim]
        follower = next(m for m in survivors
                        if not vo.rdm(m).overlay.is_super_peer)
        overlay = vo.rdm(follower).overlay
        view_before = overlay.view
        stale = {
            "group_id": view_before.group_id,
            "super_peer": victim,  # the dead one
            "members": [],
            "super_peers": [victim],
            "coordinator": view_before.coordinator,
            "epoch": view_before.epoch - 1,  # pre-takeover epoch
        }

        def send_stale(method):
            value = yield from vo.network.call(
                follower, follower, vo.rdm(follower).name, method,
                payload=stale)
            return value

        vo.run_process(send_stale("peer_assign"))
        vo.run_process(send_stale("group_assign"))
        assert overlay.view.super_peer != victim
        assert overlay.view.epoch == view_before.epoch

    def test_no_takeover_without_probes(self):
        vo, victim, members = self._overlay_vo(probe_interval=1e9)
        vo.sim.run(until=80.0)
        assert not vo.network.is_online(victim)
        assert sum(vo.rdm(n).overlay.reelections for n in vo.site_names) == 0

    def test_recovery_is_deterministic(self):
        def takeover_at(seed):
            vo, victim, members = self._overlay_vo(seed=seed)
            vo.sim.run(until=80.0)
            return [(entry["at"], entry["missing"])
                    for entry in entries(vo.sim.journal, "overlay", "takeover")]

        assert takeover_at(23) == takeover_at(23)
