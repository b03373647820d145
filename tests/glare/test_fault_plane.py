"""Unit + integration tests for the VO-wide fault plane.

Covers the declarative scenario knobs (crash schedules, link loss,
partitions, per-service error rules) and their construction-time
checks, the one outage generator, the GridFTP delegation, and the
headline self-management story: crash a super-peer through the plane
and watch the overlay detect, vote and re-elect.
"""

import dataclasses

import pytest

from repro.faults import (
    CrashSpec,
    FaultsConfig,
    LinkRule,
    PartitionSpec,
    ServiceErrorRule,
    TransferFaultRule,
)
from repro.invariants import audit
from repro.net import Topology
from repro.net.interceptors import RemoteError
from repro.net.network import Network
from repro.net.service import EchoService
from repro.simkernel import Simulator, entries
from repro.simkernel.errors import OfflineError
from repro.vo import VOConfig, build_vo


def make_vo(faults=FaultsConfig.NONE, n_sites=6, seed=11, **kwargs):
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
        vo.faults.crash(src)
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

    def test_a_scenario_is_one_frozen_value_of_five_rule_tuples(self):
        assert [f.name for f in dataclasses.fields(FaultsConfig)] \
            == ["crashes", "links", "partitions", "service_errors", "transfers"]
        assert FaultsConfig() == FaultsConfig.NONE
        assert VOConfig().faults is FaultsConfig.NONE
        with pytest.raises(dataclasses.FrozenInstanceError):
            FaultsConfig.NONE.crashes = (CrashSpec("agrid01", at=1.0),)


class TestCrashRestartSeam:
    """``crash`` / ``restart`` are the one way liveness changes, on any
    network: a bare one's disabled plane needs no ``start()``."""

    def test_bare_network_crash_and_restart(self):
        sim = Simulator(seed=1)
        net = Network(sim, Topology.full_mesh(("A", "B"), latency=0.005,
                                              bandwidth=1e7))
        for name in ("A", "B"):
            net.add_node(name)
        EchoService(net, "B")
        assert not net.faults.enabled

        outcomes = []

        def ping():
            try:
                yield from net.call("A", "B", "echo", "echo", payload="x")
                outcomes.append("ok")
            except OfflineError:
                outcomes.append("offline")

        assert net.faults.crash("B") is True
        assert not net.is_online("B")
        sim.process(ping())
        sim.run()
        net.faults.restart("B")
        assert net.is_online("B")
        sim.process(ping())
        sim.run()
        assert outcomes == ["offline", "ok"]
        assert [(e["kind"], e["site"]) for e in entries(sim.journal, "faults")] \
            == [("crash", "B"), ("restart", "B")]

    def test_crash_of_a_down_site_is_a_journaled_skip(self):
        vo = make_vo()
        assert vo.faults.crash("agrid03") is True
        assert vo.faults.crash("agrid03") is False
        assert vo.faults.crash(None) is False
        assert [(e["kind"], e["site"]) for e in entries(vo.sim.journal, "faults")] \
            == [("crash", "agrid03"), ("crash-skip", "agrid03"),
                ("crash-skip", None)]
        assert not vo.network.is_online("agrid03")

    @staticmethod
    def running(vo, site):
        return [loop for plane in vo.network.node(site).planes
                for loop in plane.loops() if loop.running]

    def test_restart_revives_exactly_what_the_crash_stopped(self):
        vo = make_vo(monitors=True, lifecycle=True)
        groups = vo.form_overlay()
        member = next(name for sp, members in sorted(groups.items())
                      for name in members if name != sp)
        rdm = vo.rdm(member)
        refresher = rdm._monitors[1]
        refresher.stop()  # stopped before the crash: stays stopped
        before = self.running(vo, member)
        assert rdm.overlay.detector in before and refresher not in before
        assert not vo.stack(member).lifecycle.minimums.running

        vo.faults.crash(member)
        assert self.running(vo, member) == []
        vo.sim.run(until=vo.sim.now + 100)
        assert self.running(vo, member) == []
        assert audit(vo.network) == []
        vo.faults.restart(member)
        assert self.running(vo, member) == before
        assert not refresher.running
        assert not vo.stack(member).lifecycle.minimums.running
        vo.sim.run(until=vo.sim.now + 100)
        assert audit(vo.network) == []

    def test_a_vo_without_lifecycle_restarts_no_sweeper(self):
        vo = make_vo()
        lifecycle = vo.stack("agrid03").lifecycle
        vo.faults.crash("agrid03")
        vo.faults.restart("agrid03")
        assert not lifecycle.lifetime.running and not lifecycle.minimums.running
        assert vo.stack("agrid03").index.keepalive.running

    def test_a_restart_after_vo_stop_revives_nothing(self):
        vo = make_vo(monitors=True, lifecycle=True)
        vo.form_overlay()
        vo.faults.crash("agrid03")
        vo.network.stop()
        vo.faults.restart("agrid03")
        assert self.running(vo, "agrid03") == []
        vo.sim.run(until=vo.sim.now + 1000)
        assert vo.sim.peek() == float("inf")
        assert audit(vo.network) == []


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

    def test_overlapping_crash_schedules_no_second_restart(self):
        """A crash of a site already down is skipped and schedules no
        restart, so the first crash's restart alone brings it back."""
        vo = make_vo(faults=FaultsConfig(crashes=(
            CrashSpec("agrid02", at=10.0, down_for=30.0),
            CrashSpec("agrid02", at=20.0, down_for=30.0),
        )))
        vo.sim.run(until=39.0)
        assert not vo.network.is_online("agrid02")
        vo.sim.run(until=45.0)
        assert vo.network.is_online("agrid02")
        kinds = [(e["kind"], e["at"]) for e in entries(vo.sim.journal, "faults")]
        assert kinds == [("crash", 10.0), ("crash-skip", 20.0), ("restart", 40.0)]
        vo.sim.run(until=60.0)
        assert vo.network.is_online("agrid02")
        assert len(entries(vo.sim.journal, "faults")) == 3

    def test_permanent_crash(self):
        vo = make_vo(faults=FaultsConfig(
            crashes=(CrashSpec(site="agrid03", at=5.0),)
        ))
        vo.sim.run(until=100.0)
        assert not vo.network.is_online("agrid03")

    def test_outage_victim_picked_at_run_time(self):
        vo = make_vo()
        victims = iter(["agrid04", "agrid01"])

        def churn():
            for when in (5.0, 15.0):
                yield vo.sim.timeout(when - vo.sim.now)
                vo.sim.process(vo.faults.outage(next(victims), 4.0))

        vo.sim.process(churn())
        vo.sim.run(until=6.0)
        assert not vo.network.is_online("agrid04")
        vo.sim.run(until=16.0)
        assert vo.network.is_online("agrid04")  # restarted after 4s
        assert not vo.network.is_online("agrid01")
        crashed = [e["site"] for e in entries(vo.sim.journal, "faults", "crash")]
        assert crashed == ["agrid04", "agrid01"]

    def test_outage_of_no_site_is_a_journaled_skip_with_no_restart(self):
        vo = make_vo()
        vo.sim.process(vo.faults.outage(None, 4.0, at=5.0))
        vo.sim.run(until=10.0)
        assert [(e["kind"], e["at"]) for e in entries(vo.sim.journal, "faults")] \
            == [("crash-skip", 5.0)]


class TestMalformedSpecs:
    """A malformed rule fails where it is written, not mid-run."""

    def test_negative_times_are_rejected(self):
        with pytest.raises(ValueError, match="down_for"):
            CrashSpec("agrid01", at=5.0, down_for=-1.0)
        with pytest.raises(ValueError, match="crash time"):
            CrashSpec("agrid01", at=-1.0)
        assert CrashSpec("agrid01", at=0.0, down_for=0.0).down_for == 0.0

    def test_crash_of_an_unknown_node_fails_the_build(self):
        with pytest.raises(ValueError, match="nosuch"):
            make_vo(n_sites=4, faults=FaultsConfig(
                crashes=(CrashSpec("agrid01", at=5.0), CrashSpec("nosuch", at=5.0))))

    def test_empty_partition_window_is_rejected(self):
        with pytest.raises(ValueError, match="start < end"):
            PartitionSpec(10.0, 5.0, ("agrid01",))
        with pytest.raises(ValueError, match="start < end"):
            PartitionSpec(5.0, 5.0, ("agrid01",))

    def test_out_of_range_rates_are_rejected(self):
        for loss in (1.5, -0.1):
            with pytest.raises(ValueError, match="loss"):
                LinkRule(loss=loss)
        for rate in (1.5, -0.1):
            with pytest.raises(ValueError, match="rate"):
                ServiceErrorRule(service="mds-index", rate=rate)
            with pytest.raises(ValueError, match="rate"):
                TransferFaultRule(rate=rate)

    def test_partition_group_is_a_non_empty_tuple_of_names(self):
        for group in ("agrid01", (), ["agrid01"], ("agrid01", 2)):
            with pytest.raises(ValueError, match="group"):
                PartitionSpec(1.0, 5.0, group)


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
        """A transfer rule draws and counts on the shared plane."""
        vo = make_vo(seed=37, faults=FaultsConfig(
            transfers=(TransferFaultRule(0.9, site="agrid01"),)))
        gridftp = vo.stack("agrid01").gridftp
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
        vo = make_vo(faults=FaultsConfig(transfers=(TransferFaultRule(0.0),)))
        plane = vo.faults
        assert plane.transfer_fault("agrid01", "/p") is False
        assert "gridftp-fail:agrid01:/p" not in vo.sim.rng._streams


class TestSuperPeerCrashRecovery:
    """Satellite: the §3.4 story end-to-end through the fault plane."""

    def _overlay_vo(self, probe_interval=8.0, seed=23):
        vo = make_vo(n_sites=8, seed=seed, group_size=4, cache_enabled=False)
        for name in vo.site_names:
            vo.rdm(name).overlay.probe_interval = probe_interval
        groups = vo.form_overlay()
        # crash the super-peer of a group that does not hold the VO root
        eligible = sorted(sp for sp in groups
                          if vo.community_site not in groups[sp])
        victim = eligible[0]
        vo.sim.process(vo.faults.outage(victim, 200.0, at=30.0))
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
        assert not vo.obs.enabled and vo.obs.slo is None
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

    def test_a_dead_member_deposes_nobody(self):
        """Regression: a crashed member's failure detector kept probing,
        failed at once and ran the takeover from the dead site, so on
        restart it claimed a group of its own at a new epoch."""
        vo = build_vo(n_sites=7, group_size=3, seed=42, monitors=False,
                      lifecycle=False)
        assert vo.form_overlay()["agrid00"] == ["agrid00", "agrid06"]
        vo.faults.crash("agrid06")
        for _ in range(12):
            vo.sim.run(until=vo.sim.now + 5)
            assert audit(vo.network) == []
        assert entries(vo.sim.journal, "overlay", "takeover") == []
        vo.faults.restart("agrid06")
        vo.sim.run(until=vo.sim.now + 5)
        for site in ("agrid06", "agrid00"):
            view = vo.rdm(site).overlay.view
            assert (view.super_peer, view.member_sites(), view.epoch) \
                == ("agrid00", ["agrid00", "agrid06"], 1)
        assert vo.rdm("agrid06").overlay.detector.running
        assert audit(vo.network) == []

    def test_recovery_is_deterministic(self):
        def takeover_at(seed):
            vo, victim, members = self._overlay_vo(seed=seed)
            vo.sim.run(until=80.0)
            return [(entry["at"], entry["missing"])
                    for entry in entries(vo.sim.journal, "overlay", "takeover")]

        assert takeover_at(23) == takeover_at(23)
