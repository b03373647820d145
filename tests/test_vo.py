"""Unit tests for the VO builder."""

import pytest

from repro.vo import ORIGIN, VOConfig, build_vo


class TestBuildVo:
    def test_full_stack_per_site(self):
        vo = build_vo(n_sites=3, seed=1, monitors=False)
        for name in vo.site_names:
            # the site's parts, whole and in construction order
            planes = vo.network.node(name).planes
            assert [type(plane).__name__ for plane in planes] == [
                "GridSite", "IndexService", "GridFtpService", "GramService",
                "ActivityTypeRegistry", "ActivityDeploymentRegistry",
                "ReservationService", "GlareRDMService", "SiteAgent",
                "LifecycleController"]
            runtime = vo.network.node(name)
            for service in ("mds-index", "gridftp", "gram",
                            "activity-type-registry",
                            "activity-deployment-registry",
                            "gridarm-reservation", "glare-rdm"):
                assert service in runtime.services, (name, service)

    def test_community_index_on_first_site(self):
        vo = build_vo(n_sites=3, seed=1, monitors=False)
        assert vo.community_site == "agrid00"
        assert vo.stack("agrid00").index.community
        assert not vo.stack("agrid01").index.community

    def test_origin_site_exists_with_gridftp_only(self):
        vo = build_vo(n_sites=2, seed=1, monitors=False)
        runtime = vo.network.node(ORIGIN)
        assert "gridftp" in runtime.services
        assert "glare-rdm" not in runtime.services

    def test_membership_bootstrapped(self):
        vo = build_vo(n_sites=4, seed=1, monitors=False)
        community = vo.stack(vo.community_site).index
        assert set(community.live_sites()) == set(vo.site_names)

    def test_heterogeneous_site_attributes(self):
        vo = build_vo(n_sites=6, seed=1, monitors=False)
        speeds = {vo.stack(n).site.description.processor_speed_mhz
                  for n in vo.site_names}
        assert len(speeds) > 1
        ranks = {vo.stack(n).site.rank() for n in vo.site_names}
        assert len(ranks) == 6  # unique, as the election requires

    def test_config_validation(self):
        with pytest.raises(ValueError):
            build_vo(n_sites=0)
        with pytest.raises(ValueError):
            build_vo(VOConfig(n_sites=2), n_sites=3)

    def test_run_process_returns_value(self):
        vo = build_vo(n_sites=2, seed=1, monitors=False)

        def gen():
            yield vo.sim.timeout(5)
            return "done"

        assert vo.run_process(gen()) == "done"

    def test_run_process_with_deadline(self):
        vo = build_vo(n_sites=2, seed=1, monitors=False)

        def slow():
            yield vo.sim.timeout(100)

        with pytest.raises(TimeoutError):
            vo.run_process(slow(), until=vo.sim.now + 1)

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_run_process_raises_the_failure_of_its_process(self, until):
        vo = build_vo(n_sites=2, seed=1, monitors=False)

        def failing():
            yield vo.sim.timeout(1)
            raise KeyError("gone")

        with pytest.raises(KeyError, match="gone"):
            vo.run_process(failing(), until=until)

    def test_publish_archive_and_deployfile(self):
        vo = build_vo(n_sites=2, seed=1, monitors=False)
        vo.publish_archive("http://x/a.tgz", size=1234, md5sum="m")
        site, path = vo.url_catalog.resolve("http://x/a.tgz")
        assert site == ORIGIN
        assert vo.origin.fs.get_file(path).size == 1234
        vo.publish_deployfile("http://x/a.build", "<Build name='a'/>")
        assert vo.url_catalog.content("http://x/a.build") == "<Build name='a'/>"

    def test_determinism_across_builds(self):
        """Same seed + same operations => identical simulated timings."""
        def run_once():
            vo = build_vo(n_sites=3, seed=99, monitors=False)
            vo.form_overlay()
            vo.run_process(vo.client_call(
                "agrid01", "register_type",
                payload={"xml": '<ActivityTypeEntry name="D" kind="abstract"/>'},
            ))
            wire = vo.run_process(vo.client_call("agrid02", "lookup_type",
                                                 payload="D"))
            return vo.sim.now, wire is not None

        assert run_once() == run_once()
