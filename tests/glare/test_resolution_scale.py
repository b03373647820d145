"""Tests for the scaled resolution plane: singleflight coalescing,
batched cache revalidation, super-peer digests and negative caching
(one switch, off by default; see
:class:`repro.glare.resolution.ResolutionConfig`)."""

import pytest

from repro.experiments.workload import placed
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.glare.monitors import CacheRefresher
from repro.glare.resolution import NEGATIVE_TTL, ResolutionConfig, TypeDigest
from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="ScaleApp" kind="concrete">'
    "<Domain>x</Domain></ActivityTypeEntry>"
)


def make_vo(resolution=ResolutionConfig(), **kwargs):
    kwargs.setdefault("n_sites", 4)
    kwargs.setdefault("seed", 71)
    kwargs.setdefault("monitors", False)
    kwargs.setdefault("lifecycle", False)
    vo = build_vo(resolution=resolution, **kwargs)
    vo.form_overlay()
    return vo


def register_type_and_deployment(vo, site, type_name="ScaleApp"):
    xml = TYPE_XML.replace("ScaleApp", type_name)
    vo.run_process(vo.client_call(site, "register_type", payload={"xml": xml}))
    deployment = ActivityDeployment(
        name=f"{type_name.lower()}-bin", type_name=type_name,
        kind=DeploymentKind.EXECUTABLE, site=site,
        path=f"/opt/deployments/{type_name.lower()}/bin/run",
        status=DeploymentStatus.ACTIVE,
    )
    vo.run_process(vo.client_call(
        site, "register_deployment",
        payload={"xml": placed(vo, deployment).to_xml().to_string()},
    ))
    return deployment


def concurrent_resolutions(vo, site, type_name, count):
    """``count`` clients at ``site`` resolve ``type_name`` at once.

    Returns (outcomes, messages): each outcome is a sorted key list or
    an exception class name.
    """
    outcomes = []

    def one(index):
        try:
            wires = yield from vo.client_call(
                site, "get_deployments",
                payload={"type": type_name, "auto_deploy": False},
            )
            outcomes.append(sorted(w["epr"]["key"] for w in wires))
        except Exception as error:
            outcomes.append(type(error).__name__)

    before = vo.network.total_messages
    procs = [vo.sim.process(one(i), name=f"client-{i}") for i in range(count)]
    vo.sim.run(until=vo.sim.all_of(procs))
    return outcomes, vo.network.total_messages - before


class TestSingleflight:
    def test_concurrent_resolutions_coalesce(self):
        config = ResolutionConfig.all_on()
        vo = make_vo(resolution=config, cache_enabled=False)
        deployment = register_type_and_deployment(vo, "agrid02")
        baseline_vo = make_vo(cache_enabled=False)
        register_type_and_deployment(baseline_vo, "agrid02")

        outcomes, messages = concurrent_resolutions(vo, "agrid01", "ScaleApp", 5)
        base_outcomes, base_messages = concurrent_resolutions(
            baseline_vo, "agrid01", "ScaleApp", 5)

        assert outcomes == [[deployment.key]] * 5
        assert outcomes == base_outcomes
        manager = vo.rdm("agrid01").request_manager
        assert manager.singleflight_joined == 4
        # one walk instead of five
        assert messages < base_messages
        # followers inherit the leader's tier attribution
        tiers = (manager.resolved_locally + manager.resolved_in_group
                 + manager.resolved_via_superpeer + manager.resolved_by_deployment)
        assert tiers == 5

    def test_leader_failure_falls_back_to_own_walk(self):
        config = ResolutionConfig.all_on()
        vo = make_vo(resolution=config, cache_enabled=False)
        outcomes, _ = concurrent_resolutions(vo, "agrid01", "NoSuchApp", 4)
        # the leader's walk raised; every follower ran (and failed) its own
        assert outcomes == ["TypeNotFound"] * 4
        assert vo.rdm("agrid01").request_manager.singleflight_joined == 3

    def test_sequential_resolutions_never_join(self):
        config = ResolutionConfig.all_on()
        vo = make_vo(resolution=config, cache_enabled=False)
        register_type_and_deployment(vo, "agrid02")
        for _ in range(3):
            vo.run_process(vo.client_call(
                "agrid01", "get_deployments",
                payload={"type": "ScaleApp", "auto_deploy": False},
            ))
        assert vo.rdm("agrid01").request_manager.singleflight_joined == 0


class TestBatchedRevalidation:
    def setup_cached_copy(self, vo):
        deployment = register_type_and_deployment(vo, "agrid01")
        vo.run_process(vo.client_call(
            "agrid02", "get_deployments",
            payload={"type": "ScaleApp", "auto_deploy": False},
        ))
        assert deployment.key in vo.stack("agrid02").adr.cached_deployments
        return deployment

    def test_source_update_propagates_via_batch(self):
        vo = make_vo(resolution=ResolutionConfig.all_on())
        deployment = self.setup_cached_copy(vo)
        vo.sim.run(until=vo.sim.now + 5)
        vo.run_process(vo.client_call(
            "agrid01", "update_status",
            payload={"key": deployment.key, "status": "failed"},
            service="activity-deployment-registry",
        ))
        refresher = CacheRefresher(vo.rdm("agrid02"), interval=15.0)
        vo.run_process(refresher.tick())
        cached = vo.stack("agrid02").adr.cached_deployments[deployment.key]
        assert cached.status == DeploymentStatus.FAILED
        assert refresher.refreshed == 1
        assert refresher.batched_rpcs >= 1

    def test_vanished_source_resource_discarded_via_batch(self):
        vo = make_vo(resolution=ResolutionConfig.all_on())
        deployment = self.setup_cached_copy(vo)
        vo.run_process(vo.client_call(
            "agrid01", "remove_deployment", payload=deployment.key,
            service="activity-deployment-registry",
        ))
        refresher = CacheRefresher(vo.rdm("agrid02"), interval=15.0)
        vo.run_process(refresher.tick())
        assert deployment.key not in vo.stack("agrid02").adr.cached_deployments
        assert refresher.discarded >= 1

    def test_batching_reaches_same_state_with_fewer_messages(self):
        states, messages = [], []
        for batched in (False, True):
            vo = make_vo(
                resolution=ResolutionConfig(scaled=batched),
                n_sites=5, group_size=6,
            )
            for index, home in enumerate(("agrid01", "agrid02", "agrid03",
                                          "agrid04", "agrid01", "agrid02")):
                register_type_and_deployment(vo, home, f"BatchApp{index}")
            for index in range(6):
                vo.run_process(vo.client_call(
                    "agrid00", "get_deployments",
                    payload={"type": f"BatchApp{index}", "auto_deploy": False},
                ))
            refresher = CacheRefresher(vo.rdm("agrid00"), interval=15.0)
            before = vo.network.total_messages
            vo.run_process(refresher.tick())
            messages.append(vo.network.total_messages - before)
            stack = vo.stack("agrid00")
            states.append((
                sorted(stack.atr.cache_sources),
                sorted(stack.adr.cache_sources),
                {k: d.status for k, d in stack.adr.cached_deployments.items()},
            ))
        assert states[0] == states[1]
        assert messages[1] < messages[0]


class TestTypeDigest:
    def test_group_claims_and_forget(self):
        digest = TypeDigest()
        digest.learn_group("App", "sp1")
        digest.learn_group("App", "sp2")
        assert digest.groups_for("App") == ["sp1", "sp2"]
        digest.forget_group("App", "sp1")
        assert digest.groups_for("App") == ["sp2"]
        assert digest.groups_for("Other") is None

    def test_reset_bumps_epoch_and_clears_claims(self):
        digest = TypeDigest()
        digest.learn_group("App", "sp1")
        digest.learn_member("m1", ["App"], epoch=0, full=True)
        digest.note_missing("Ghost", now=0.0, ttl=100.0)
        digest.reset(epoch=1)
        assert digest.epoch == 1
        assert digest.groups_for("App") is None
        assert digest.members_for("App", ["m1"]) is None
        assert not digest.is_missing("Ghost", now=1.0)
        assert digest.resets == 1

    def test_stale_epoch_notes_ignored(self):
        digest = TypeDigest()
        digest.reset(epoch=2)
        digest.learn_member("m1", ["App"], epoch=1, full=True)
        assert digest.members_for("App", ["m1"]) is None
        digest.learn_member("m1", ["App"], epoch=2, full=True)
        assert digest.members_for("App", ["m1"]) == ["m1"]

    def test_members_for_requires_full_sync(self):
        digest = TypeDigest()
        digest.learn_member("m1", ["App"], epoch=0, full=True)
        # m2 never sent a bulk note: narrowing would be lossy
        assert digest.members_for("App", ["m1", "m2"]) is None
        digest.learn_member("m2", [], epoch=0, full=True)
        assert digest.members_for("App", ["m1", "m2"]) == ["m1"]
        assert digest.members_for("Other", ["m1", "m2"]) == []

    def test_negative_cache_ttl_and_clear(self):
        digest = TypeDigest()
        digest.note_missing("Ghost", now=10.0, ttl=5.0)
        assert digest.is_missing("Ghost", now=14.9)
        assert not digest.is_missing("Ghost", now=15.1)  # expired
        digest.note_missing("Ghost", now=20.0, ttl=5.0)
        digest.clear_missing("Ghost")  # a registration landed
        assert not digest.is_missing("Ghost", now=21.0)


class TestDigestIntegration:
    def test_negative_cache_suppresses_refloods_until_ttl(self):
        vo = make_vo(resolution=ResolutionConfig.all_on(), n_sites=6)
        costs = []
        for _ in range(2):
            _, messages = concurrent_resolutions(vo, "agrid01", "GhostApp", 1)
            costs.append(messages)
        negative_hits = sum(
            vo.rdm(name).directory.digest.negative_hits
            for name in vo.site_names
        )
        assert negative_hits == 1
        assert costs[1] < costs[0]
        # past the TTL the claim is re-verified with a full walk
        vo.sim.run(until=vo.sim.now + NEGATIVE_TTL + 1.0)
        _, expired_cost = concurrent_resolutions(vo, "agrid01", "GhostApp", 1)
        assert expired_cost > costs[1]

    def test_registration_clears_negative_entry(self):
        vo = make_vo(resolution=ResolutionConfig.all_on(), n_sites=6)
        outcomes, _ = concurrent_resolutions(vo, "agrid01", "LateApp", 1)
        assert outcomes == ["TypeNotFound"]
        deployment = register_type_and_deployment(vo, "agrid01", "LateApp")
        vo.sim.run(until=vo.sim.now + 5.0)  # let digest notes land
        outcomes, _ = concurrent_resolutions(vo, "agrid01", "LateApp", 1)
        assert outcomes == [[deployment.key]]

    def test_reelection_resets_digests(self):
        vo = make_vo(resolution=ResolutionConfig.all_on(), n_sites=6)
        register_type_and_deployment(vo, "agrid03")
        concurrent_resolutions(vo, "agrid01", "ScaleApp", 1)
        coordinator = vo.rdm(vo.community_site)
        resets_before = sum(
            vo.rdm(n).directory.digest.resets for n in vo.super_peers()
        )
        vo.run_process(coordinator.overlay.run_election(list(vo.stacks)))
        vo.sim.run(until=vo.sim.now + 10.0)
        super_peers = vo.super_peers()
        resets = [vo.rdm(n).directory.digest.resets for n in super_peers]
        assert sum(resets) > resets_before
        # digests carry the new election epoch
        for name in super_peers:
            digest = vo.rdm(name).directory.digest
            assert digest.epoch == vo.rdm(name).overlay.view.epoch

    def test_digest_narrowing_preserves_results(self):
        """Same request sequence, same answers, fewer messages."""
        results = {}
        for optimized in (False, True):
            resolution = ResolutionConfig(scaled=optimized)
            vo = make_vo(resolution=resolution, n_sites=8,
                         cache_enabled=False, group_size=3, seed=9)
            deployment = register_type_and_deployment(vo, "agrid05")
            vo.sim.run(until=vo.sim.now + 5.0)
            outcomes = []
            total = 0
            for _ in range(3):
                out, messages = concurrent_resolutions(
                    vo, "agrid01", "ScaleApp", 1)
                outcomes.extend(out)
                total += messages
            results[optimized] = (outcomes, total)
            assert outcomes == [[deployment.key]] * 3
        assert results[True][0] == results[False][0]
        assert results[True][1] < results[False][1]


class TestJitterAndFanoutCounters:
    def test_monitor_jitter_is_deterministic_and_spread(self):
        phases = []
        for _ in range(2):
            vo = build_vo(
                n_sites=4, seed=5, monitors=True, lifecycle=False,
                resolution=ResolutionConfig.all_on(),
            )
            phases.append({
                (name, monitor.NAME): monitor.phase
                for name in vo.site_names
                for monitor in vo.rdm(name)._monitors
            })
        assert phases[0] == phases[1]  # same seed, same phases
        assert all(p > 0.0 for p in phases[0].values())
        assert len(set(phases[0].values())) > 1  # actually spread out

    def test_jitter_off_keeps_zero_phase(self):
        vo = build_vo(n_sites=3, seed=5, monitors=True, lifecycle=False)
        assert all(
            monitor.phase == 0.0
            for name in vo.site_names
            for monitor in vo.rdm(name)._monitors
        )

    def test_fanout_failures_counted_per_site(self):
        vo = make_vo(cache_enabled=False)
        register_type_and_deployment(vo, "agrid02")
        vo.faults.crash("agrid03")
        outcomes, _ = concurrent_resolutions(vo, "agrid01", "ScaleApp", 1)
        assert outcomes and isinstance(outcomes[0], list)
        failures = {}
        for name in vo.site_names:
            for site, count in vo.rdm(name).request_manager.fanout_failures.items():
                failures[site] = failures.get(site, 0) + count
        assert failures.get("agrid03", 0) >= 1
