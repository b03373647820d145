"""The scaled provisioning path: parallel probing, concurrent
dependencies, rollout, and replica-aware transfers.

One switch (:class:`repro.glare.provisioning.ProvisioningConfig`,
off by default) turns them on together; these tests check each
mechanism both for its effect and for result-equivalence with the
serial baseline.  (The config surface itself is pinned by
``tests/glare/test_planes.py``.)
"""

import pytest

from repro.apps import (
    get_application,
    publish_applications,
    register_application,
)
from repro.glare.model import ActivityDeployment
from repro.glare.provisioning import ProvisioningConfig
from repro.gridftp import GridFtpService, TransferError, UrlCatalog
from repro.net import Network, Topology
from repro.simkernel import Simulator
from repro.site import GridSite, SiteDescription
from repro.vo import build_vo

URL = "http://www.povray.org/povlinux-3.6.tgz"


def make_vo(apps=("Wien2k",), register_at="agrid01", **kwargs):
    kwargs.setdefault("n_sites", 4)
    kwargs.setdefault("seed", 101)
    kwargs.setdefault("monitors", False)
    vo = build_vo(**kwargs)
    publish_applications(vo)
    vo.form_overlay()
    for app in apps:
        vo.run_process(register_application(vo, register_at, app))
    return vo


def holders(vo, type_name):
    return sorted(
        name for name in vo.site_names
        if vo.stack(name).adr.local_deployments_for(type_name)
    )


class TestParallelProbe:
    def test_parallel_probe_selects_the_same_site(self):
        """Concurrent site_info probing must not change placement."""
        targets = {}
        for parallel in (False, True):
            vo = make_vo(provisioning=ProvisioningConfig(scaled=parallel))
            wires = vo.run_process(vo.client_call(
                "agrid02", "get_deployments", payload="Wien2k"
            ))
            targets[parallel] = sorted(
                ActivityDeployment.from_xml(w["xml"]).site for w in wires
            )
        assert targets[False] == targets[True]

    def test_parallel_probe_is_faster(self):
        elapsed = {}
        for parallel in (False, True):
            vo = make_vo(provisioning=ProvisioningConfig(scaled=parallel))
            rdm = vo.rdm("agrid02")
            from repro.glare.model import ActivityType

            constraints = ActivityType.from_xml(
                get_application("Wien2k").type_xml
            ).installation.constraints

            def probe():
                started = vo.sim.now
                yield from rdm.deployment_manager._candidate_sites(
                    constraints, None
                )
                return vo.sim.now - started

            elapsed[parallel] = vo.run_process(probe())
        assert elapsed[True] < elapsed[False]

    @pytest.mark.parametrize("provisioning",
                             [ProvisioningConfig(), ProvisioningConfig.all_on()],
                             ids=["serial", "parallel"])
    def test_a_shedding_site_is_dropped_like_an_unreachable_one(
            self, provisioning):
        """Regression: a ``site_info`` probe shed by admission control
        used to raise ``Overloaded`` out of the serial loop while the
        parallel fork silently dropped the site."""
        vo = make_vo(apps=(), provisioning=provisioning)
        vo.rdm("agrid02").admission_limit = 0  # sheds every data-plane op
        manager = vo.rdm("agrid00").deployment_manager
        found = vo.run_process(manager.probe_sites(["agrid01", "agrid02"]))
        assert sorted(found) == ["agrid01"]

    def test_an_unexpected_probe_error_still_propagates(self):
        vo = make_vo(apps=())

        def broken(message):
            raise ValueError("not a transport error")
            yield

        vo.rdm("agrid02").op_site_info = broken
        manager = vo.rdm("agrid00").deployment_manager
        with pytest.raises(ValueError):
            vo.run_process(manager.probe_sites(["agrid01", "agrid02"]))

    def test_ttl_cache_skips_reprobes(self):
        vo = make_vo(apps=("Wien2k", "Invmod"),
                     provisioning=ProvisioningConfig.all_on())
        manager = vo.rdm("agrid02").deployment_manager
        vo.run_process(vo.client_call("agrid02", "get_deployments",
                                      payload="Wien2k"))
        first_round = manager.probe_cache_hits
        vo.run_process(vo.client_call("agrid02", "get_deployments",
                                      payload="Invmod"))
        # the second deployment's candidate scan reuses every probe
        assert manager.probe_cache_hits > first_round
        assert manager.probe_cache_hits >= len(vo.site_names)

    def test_ttl_zero_never_caches(self):
        vo = make_vo(apps=("Wien2k", "Invmod"))
        manager = vo.rdm("agrid02").deployment_manager
        vo.run_process(vo.client_call("agrid02", "get_deployments",
                                      payload="Wien2k"))
        vo.run_process(vo.client_call("agrid02", "get_deployments",
                                      payload="Invmod"))
        assert manager.probe_cache_hits == 0
        assert manager._site_cache == {}


class TestParallelDependencies:
    APPS = ("Java", "Ant", "JPOVray")

    def _deploy_jpovray(self, parallel):
        vo = make_vo(apps=self.APPS,
                     provisioning=ProvisioningConfig(scaled=parallel))
        started = vo.sim.now
        wires = vo.run_process(vo.client_call(
            "agrid03", "get_deployments", payload="JPOVray"
        ))
        target = ActivityDeployment.from_xml(wires[0]["xml"]).site
        return vo, target, vo.sim.now - started

    def test_concurrent_dependencies_install_the_same_stack(self):
        results = {}
        for parallel in (False, True):
            vo, target, elapsed = self._deploy_jpovray(parallel)
            adr = vo.stack(target).adr
            assert adr.local_deployments_for("Java")
            assert adr.local_deployments_for("Ant")
            results[parallel] = (target, holders(vo, "Java"),
                                 holders(vo, "Ant"), elapsed)
        assert results[False][:3] == results[True][:3]
        # Java and Ant overlap instead of running back to back
        assert results[True][3] < results[False][3]

    def test_shared_transitive_dependency_installs_once(self):
        """Ant itself needs Java; the single-flight gate deduplicates."""
        vo, target, _ = self._deploy_jpovray(parallel=True)
        manager = vo.rdm("agrid03").deployment_manager
        # exactly three installations: JPOVray, Ant, and Java *once*,
        # even though both JPOVray and Ant depend on it concurrently
        assert manager.stats.installs_succeeded == 3
        assert vo.stack(target).adr.local_deployments_for("Java")


class TestRollout:
    def _rollout(self, vo, **payload_extra):
        spec = get_application("Wien2k")
        payload = {"type_xml": spec.type_xml}
        payload.update(payload_extra)
        return vo.run_process(vo.client_call(
            "agrid01", "rollout", payload=payload
        ))

    def test_serial_rollout_installs_on_every_candidate(self):
        vo = make_vo()
        result = self._rollout(vo)
        assert result["type"] == "Wien2k"
        statuses = {leg["site"]: leg["status"] for leg in result["results"]}
        assert set(statuses.values()) == {"installed"}
        assert holders(vo, "Wien2k") == sorted(statuses)

    def test_rollout_compiles_its_deployfile_once(self, compiled_recipes):
        """Four sites, one document: one XML-to-plan compilation and one
        Kahn pass, whoever gets there first."""
        vo = make_vo()
        result = self._rollout(vo)
        assert [leg["status"] for leg in result["results"]] == ["installed"] * 4
        assert compiled_recipes == ["Wien2k"]

    def test_second_rollout_reports_present(self):
        vo = make_vo()
        self._rollout(vo)
        again = self._rollout(vo)
        assert all(leg["status"] == "present" for leg in again["results"])
        assert vo.rdm("agrid01").deployment_manager.stats.installs_attempted \
            == len(again["results"])

    def test_parallel_rollout_matches_serial_and_is_faster(self):
        outcomes = {}
        for fanout in (1, 4):
            vo = make_vo()
            started = vo.sim.now
            result = self._rollout(vo, fanout=fanout)
            legs = {
                leg["site"]: (leg["status"], sorted(
                    str(w["epr"]["key"]) for w in leg["deployments"]
                ))
                for leg in result["results"]
            }
            outcomes[fanout] = (legs, vo.sim.now - started)
        assert outcomes[1][0] == outcomes[4][0]
        assert outcomes[4][1] < outcomes[1][1]

    def test_rollout_legs_do_not_piggyback_each_other(self):
        """Same type, different targets: distinct placement keys."""
        vo = make_vo()
        self._rollout(vo, fanout=4)
        manager = vo.rdm("agrid01").deployment_manager
        assert manager.piggybacked == 0
        assert len(holders(vo, "Wien2k")) == len(vo.site_names)

    def test_explicit_targets_and_per_site_failure(self):
        vo = make_vo()
        vo.faults.crash("agrid03")
        result = self._rollout(vo, target_sites=["agrid02", "agrid03"])
        by_site = {leg["site"]: leg for leg in result["results"]}
        assert by_site["agrid02"]["status"] == "installed"
        assert by_site["agrid03"]["status"] == "failed"
        assert by_site["agrid03"]["error"]
        assert by_site["agrid03"]["deployments"] == []
        # a failed leg never aborts the rollout's other legs
        assert holders(vo, "Wien2k") == ["agrid02"]

    @pytest.mark.parametrize("fanout", [0, -1, "2", 1.5, True])
    def test_a_client_cannot_unbound_a_rollout_or_crash_its_handler(
            self, fanout):
        """Regression: ``op_rollout`` handed the payload's ``fanout``
        straight to ``bounded_gather``, where ``limit <= 0`` means
        *unbounded* — 0 and -1 ran every leg at once — and a string
        died with a bare ``TypeError`` after CPU had been charged."""
        from repro.glare.errors import GlareError

        vo = make_vo()
        with pytest.raises(GlareError, match="fanout"):
            self._rollout(vo, fanout=fanout)
        # refused before any work: nothing attempted, nothing installed
        stats = vo.rdm("agrid01").deployment_manager.stats
        assert stats.installs_attempted == 0
        assert holders(vo, "Wien2k") == []

    def test_manual_mode_refuses_rollout(self):
        from repro.glare.errors import DeploymentFailed
        from repro.glare.model import ActivityType

        vo = make_vo()
        xml = get_application("Wien2k").type_xml.replace(
            'mode="on-demand"', 'mode="manual"')

        def run():
            try:
                yield from vo.rdm("agrid01").deployment_manager.rollout(
                    ActivityType.from_xml(xml)
                )
            except DeploymentFailed:
                return "refused"

        assert vo.run_process(run()) == "refused"


def make_transfer_world(replica_aware=True):
    """Three sites where ``near`` is strictly closer to ``dst`` than
    ``origin`` is, so replica selection has an unambiguous best choice."""
    sim = Simulator(seed=7)
    topo = Topology()
    topo.add_link("dst", "near", latency=0.001, bandwidth=12.5e6)
    topo.add_link("dst", "origin", latency=0.050, bandwidth=12.5e6)
    topo.add_link("near", "origin", latency=0.050, bandwidth=12.5e6)
    net = Network(sim, topo)
    sites = {
        name: GridSite(net, SiteDescription(name=name))
        for name in ("dst", "near", "origin")
    }
    catalog = UrlCatalog()
    services = {
        name: GridFtpService(
            net, name, fs=site.fs, url_catalog=catalog,
            replica_aware=replica_aware,
        )
        for name, site in sites.items()
    }
    sites["origin"].fs.put_file("/www/app.tgz", size=4_000_000, md5sum="m")
    catalog.publish(URL, "origin", "/www/app.tgz")
    return sim, sites, services, catalog


def run(sim, gen):
    proc = sim.process(gen)
    sim.run()
    assert proc.ok, proc.value
    return proc.value


class TestReplicaTransfers:
    def test_verified_fetch_registers_replica(self):
        sim, sites, services, catalog = make_transfer_world()

        def client():
            yield from services["near"].fetch_url(URL, "/tmp/app.tgz",
                                                  expected_md5="m")

        run(sim, client())
        assert catalog.replicas[URL] == [("near", "/tmp/app.tgz")]
        assert catalog.locations(URL)[0] == ("origin", "/www/app.tgz")

    def test_second_fetch_pulls_from_nearest_replica(self):
        sim, sites, services, catalog = make_transfer_world()

        def seed_then_fetch():
            yield from services["near"].fetch_url(URL, "/tmp/app.tgz",
                                                  expected_md5="m")
            yield from services["dst"].fetch_url(URL, "/tmp/app.tgz",
                                                 expected_md5="m")

        run(sim, seed_then_fetch())
        assert services["dst"].replica_hits == 1
        assert services["dst"].transfers[-1].source == "near"
        assert sites["dst"].fs.get_file("/tmp/app.tgz").size == 4_000_000

    def test_stale_replica_falls_back_to_origin(self):
        sim, sites, services, catalog = make_transfer_world()
        # a replica whose file no longer exists: the fetch must recover
        catalog.add_replica(URL, "near", "/tmp/vanished.tgz")

        def client():
            entry = yield from services["dst"].fetch_url(URL, "/tmp/app.tgz",
                                                         expected_md5="m")
            return entry

        entry = run(sim, client())
        assert entry.size == 4_000_000
        assert services["dst"].transfers[-1].source == "origin"
        # the dead replica was evicted; dst registered itself instead
        assert catalog.replicas[URL] == [("dst", "/tmp/app.tgz")]

    def test_offline_replica_is_skipped(self):
        sim, sites, services, catalog = make_transfer_world()
        catalog.add_replica(URL, "near", "/tmp/app.tgz")
        sim_net = services["dst"].network
        sim_net.faults.crash("near")

        def client():
            yield from services["dst"].fetch_url(URL, "/tmp/app.tgz",
                                                 expected_md5="m")

        run(sim, client())
        assert services["dst"].replica_hits == 0
        assert services["dst"].transfers[-1].source == "origin"

    def test_replicas_off_always_hits_origin(self):
        sim, sites, services, catalog = make_transfer_world(replica_aware=False)
        catalog.add_replica(URL, "near", "/tmp/app.tgz")

        def client():
            yield from services["dst"].fetch_url(URL, "/tmp/app.tgz")

        run(sim, client())
        assert services["dst"].replica_hits == 0
        assert services["dst"].transfers[-1].source == "origin"


class TestTransferSingleflight:
    def test_concurrent_fetches_share_one_download(self):
        sim, sites, services, catalog = make_transfer_world()
        gridftp = services["dst"]

        def client(index):
            yield from gridftp.fetch_url(URL, f"/tmp/copy{index}.tgz")

        for index in range(3):
            sim.process(client(index))
        sim.run()
        assert gridftp.url_singleflight_joined == 2
        # one wide-area pull; the followers copied the leader's file
        wide_area = [t for t in gridftp.transfers if t.source == "origin"]
        assert len(wide_area) == 1
        for index in range(3):
            assert sites["dst"].fs.get_file(f"/tmp/copy{index}.tgz").size \
                == 4_000_000
        assert gridftp._url_flights.in_flight == {}

    def test_failed_leader_is_not_shared(self):
        sim, sites, services, catalog = make_transfer_world()
        gridftp = services["dst"]
        sites["origin"].fs.remove_file("/www/app.tgz")
        failures = []

        def client(index):
            try:
                yield from gridftp.fetch_url(URL, f"/tmp/copy{index}.tgz")
            except TransferError:
                failures.append(index)

        for index in range(2):
            sim.process(client(index))
        sim.run()
        # the follower joined, saw the leader fail, retried on its own
        assert gridftp.url_singleflight_joined == 1
        assert sorted(failures) == [0, 1]
        assert gridftp._url_flights.in_flight == {}
