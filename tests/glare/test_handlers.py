"""Unit tests for the Expect and JavaCoG deployment handlers."""

import pytest

from repro.glare.deployfile import parse_deployfile
from repro.glare.handlers import DeploymentHandler, ExpectHandler, JavaCoGHandler
from repro.gram.service import GramService
from repro.gridftp.service import GridFtpService, UrlCatalog
from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator
from repro.site.description import SiteDescription
from repro.site.gridsite import GridSite
from repro.wsrf.xmldoc import parse_xml

RECIPE = """
<Build baseDir="/opt/deployments/app" defaultTask="Deploy" name="app">
  <Step name="Init" task="mkdir-p" timeout="10">
    <Property name="argument" value="$DEPLOYMENT_DIR/app"/>
  </Step>
  <Step name="Download" depends="Init" task="globus-url-copy" timeout="60"
        baseDir="$DEPLOYMENT_DIR/app">
    <Property name="source" value="http://origin/app.tgz"/>
    <Property name="destination" value="file:///opt/deployments/app/app.tgz"/>
    <Property name="md5sum" value="goodsum"/>
  </Step>
  <Step name="Expand" depends="Download" task="tar xvfz" timeout="30"
        baseDir="$DEPLOYMENT_DIR/app">
    <Property name="argument" value="$DEPLOYMENT_DIR/app/app.tgz"/>
    <Produces path="src/Makefile" size="2000" executable="false"/>
  </Step>
  <Step name="Build" depends="Expand" task="make" demand="4.0" timeout="120"
        baseDir="$DEPLOYMENT_DIR/app">
    <Dialog expect="accept license?" send="y" delay="0.5"/>
    <Produces path="bin/app" size="500000" executable="true"/>
  </Step>
</Build>
"""


@pytest.fixture()
def world():
    sim = Simulator(seed=31)
    topo = Topology.star("target", ["origin", "caller"],
                         latency=0.003, bandwidth=1e7)
    net = Network(sim, topo)
    catalog = UrlCatalog()
    origin = GridSite(net, SiteDescription(name="origin"))
    target = GridSite(net, SiteDescription(name="target"))
    net.add_node("caller")
    GridFtpService(net, "origin", fs=origin.fs, url_catalog=catalog)
    gridftp = GridFtpService(net, "target", fs=target.fs, url_catalog=catalog)
    GramService(net, "target", submission_overhead=1.0)
    origin.fs.put_file("/www/app.tgz", size=3_000_000, md5sum="goodsum")
    catalog.publish("http://origin/app.tgz", "origin", "/www/app.tgz")
    return sim, net, target, gridftp


def execute(sim, handler, recipe_text=RECIPE):
    recipe = parse_deployfile(recipe_text)
    proc = sim.process(handler.execute(recipe))
    sim.run(until=proc)
    return proc.value


class TestExpectHandler:
    def test_successful_install(self, world):
        sim, net, target, gridftp = world
        report = execute(sim, ExpectHandler(target, gridftp))
        assert report.success, report.error
        assert report.handler == "expect"
        # files materialised on the target filesystem
        assert target.fs.exists("/opt/deployments/app/app.tgz")
        assert target.fs.get_file("/opt/deployments/app/bin/app").executable
        assert target.fs.exists("/opt/deployments/app/src/Makefile")

    def test_timing_breakdown(self, world):
        sim, net, target, gridftp = world
        report = execute(sim, ExpectHandler(target, gridftp))
        assert report.handler_overhead == pytest.approx(2.1, abs=0.01)
        assert report.communication_time > 0.3  # 3MB transfer + setup
        assert report.installation_time > 4.0  # make demand + dialogs
        assert len(report.steps) == 4
        assert all(s.ok for s in report.steps)

    def test_dialogs_automated(self, world):
        sim, net, target, gridftp = world
        report = execute(sim, ExpectHandler(target, gridftp))
        build = [s for s in report.steps if s.name == "Build"][0]
        assert build.duration >= 4.5  # demand + dialog delay

    def test_md5_mismatch_fails_cleanly(self, world):
        sim, net, target, gridftp = world
        bad = RECIPE.replace("goodsum", "wrongsum")
        report = execute(sim, ExpectHandler(target, gridftp), bad)
        assert not report.success
        assert "Download" in report.error
        failed = [s for s in report.steps if not s.ok]
        assert [s.name for s in failed] == ["Download"]

    def test_missing_url_fails_cleanly(self, world):
        sim, net, target, gridftp = world
        bad = RECIPE.replace("http://origin/app.tgz", "http://nowhere/gone.tgz")
        report = execute(sim, ExpectHandler(target, gridftp), bad)
        assert not report.success
        assert "unresolvable" in report.error

    def test_wrong_gridftp_endpoint_rejected(self, world):
        sim, net, target, gridftp = world
        other_site = GridSite(net, SiteDescription(name="elsewhere"))
        with pytest.raises(ValueError):
            ExpectHandler(other_site, gridftp)


class TestJavaCoGHandler:
    def test_successful_install_via_gram(self, world):
        sim, net, target, gridftp = world
        handler = JavaCoGHandler(target, gridftp, net, caller="caller")
        report = execute(sim, handler)
        assert report.success, report.error
        assert report.handler == "javacog"
        assert target.fs.get_file("/opt/deployments/app/bin/app").executable
        # compute steps became GRAM jobs on the target
        gram = net.node("target").services["gram"]
        assert gram.jobs_submitted >= 3  # Init, Expand, Build

    def test_overheads(self, world):
        sim, net, target, gridftp = world
        handler = JavaCoGHandler(target, gridftp, net, caller="caller")
        report = execute(sim, handler)
        assert report.handler_overhead == pytest.approx(9.8, abs=0.01)
        # CoG's slow single-stream transfer: communication well above
        # the raw wire time
        assert report.communication_time > 1.0


def test_expect_vs_javacog_total(world):
    """Same recipe, same world parameters: Expect finishes sooner."""
    sim, net, target, gridftp = world
    expect_report = execute(sim, ExpectHandler(target, gridftp))

    # rebuild an identical world for the JavaCoG run
    sim2 = Simulator(seed=31)
    topo2 = Topology.star("target", ["origin", "caller"],
                          latency=0.003, bandwidth=1e7)
    net2 = Network(sim2, topo2)
    catalog2 = UrlCatalog()
    origin2 = GridSite(net2, SiteDescription(name="origin"))
    target2 = GridSite(net2, SiteDescription(name="target"))
    net2.add_node("caller")
    GridFtpService(net2, "origin", fs=origin2.fs, url_catalog=catalog2)
    gridftp2 = GridFtpService(net2, "target", fs=target2.fs, url_catalog=catalog2)
    GramService(net2, "target", submission_overhead=1.0)
    origin2.fs.put_file("/www/app.tgz", size=3_000_000, md5sum="goodsum")
    catalog2.publish("http://origin/app.tgz", "origin", "/www/app.tgz")
    cog_report = execute(sim2, JavaCoGHandler(target2, gridftp2, net2, caller="caller"))

    assert expect_report.success and cog_report.success
    assert expect_report.total_time < cog_report.total_time


def test_shared_plan_serves_sites_with_different_env():
    """One compiled plan, two sites: what differs per site lives in the
    handler, so the reports match private parses and the plan is untouched."""
    text = RECIPE.replace(
        "file:///opt/deployments/app/app.tgz", "file://$APP_HOME/app.tgz"
    ).replace(
        '<Property name="argument" value="$DEPLOYMENT_DIR/app"/>',
        '<Env name="APP_HOME" value="${DEPLOYMENT_DIR}/app"/>'
        '<Property name="argument" value="$APP_HOME"/>',
    )

    def install_on_both(recipe_for):
        sim = Simulator(seed=31)
        net = Network(sim, Topology.star("origin", ["plain", "custom"],
                                         latency=0.003, bandwidth=1e7))
        catalog = UrlCatalog()
        origin = GridSite(net, SiteDescription(name="origin"))
        GridFtpService(net, "origin", fs=origin.fs, url_catalog=catalog)
        origin.fs.put_file("/www/app.tgz", size=3_000_000, md5sum="goodsum")
        catalog.publish("http://origin/app.tgz", "origin", "/www/app.tgz")
        reports = []
        for name in ("plain", "custom"):
            site = GridSite(net, SiteDescription(name=name))
            if name == "custom":
                site.env["DEPLOYMENT_DIR"] = "/srv/grid"
            gridftp = GridFtpService(net, name, fs=site.fs, url_catalog=catalog)
            proc = sim.process(ExpectHandler(site, gridftp).execute(recipe_for()))
            sim.run(until=proc)
            assert proc.value.success, proc.value.error
            reports.append(proc.value)
        return reports

    plan = parse_deployfile(text)
    shared = install_on_both(lambda: plan)
    private = install_on_both(lambda: parse_deployfile(parse_xml(text)))
    assert shared == private
    assert shared[0].produced_files == ["/opt/deployments/app/bin/app"]
    assert shared[1].produced_files == ["/srv/grid/app/bin/app"]
    assert plan == parse_deployfile(parse_xml(text))
