"""Fault injection: transient transfer failures and handler retries."""

import pytest

from repro.glare.deployfile import parse_deployfile
from repro.glare.handlers import ExpectHandler
from repro.gridftp.service import GridFtpService, TransferError, UrlCatalog
from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator
from repro.site.description import SiteDescription
from repro.site.gridsite import GridSite

RECIPE = """
<Build baseDir="/opt/deployments/app" defaultTask="Deploy" name="app">
  <Step name="Init" task="mkdir-p" timeout="10">
    <Property name="argument" value="/opt/deployments/app"/>
  </Step>
  <Step name="Download" depends="Init" task="globus-url-copy" timeout="60"
        baseDir="/opt/deployments/app">
    <Property name="source" value="http://origin/app.tgz"/>
    <Property name="destination" value="file:///opt/deployments/app/app.tgz"/>
  </Step>
  <Step name="Expand" depends="Download" task="tar xvfz" timeout="30"
        baseDir="/opt/deployments/app">
    <Property name="argument" value="$DEPLOYMENT_DIR/app/app.tgz"/>
    <Produces path="bin/app" size="1000" executable="true"/>
  </Step>
</Build>
"""


def make_world(failure_rate, seed=37):
    sim = Simulator(seed=seed)
    topo = Topology.star("target", ["origin"], latency=0.003, bandwidth=1e7)
    net = Network(sim, topo)
    catalog = UrlCatalog()
    origin = GridSite(net, SiteDescription(name="origin"))
    target = GridSite(net, SiteDescription(name="target"))
    GridFtpService(net, "origin", fs=origin.fs, url_catalog=catalog)
    gridftp = GridFtpService(net, "target", fs=target.fs, url_catalog=catalog,
                             failure_rate=failure_rate)
    origin.fs.put_file("/www/app.tgz", size=1_000_000)
    catalog.publish("http://origin/app.tgz", "origin", "/www/app.tgz")
    return sim, target, gridftp


def run_install(sim, target, gridftp):
    handler = ExpectHandler(target, gridftp)
    proc = sim.process(handler.execute(parse_deployfile(RECIPE)))
    sim.run(until=proc)
    return proc.value


class TestTransientFailures:
    def test_flaky_transfer_retried_and_succeeds(self):
        # 40% failure rate: very likely at least one retry across seeds,
        # but 3 attempts nearly always suffice
        sim, target, gridftp = make_world(failure_rate=0.4, seed=2)
        report = run_install(sim, target, gridftp)
        assert report.success, report.error
        assert target.fs.exists("/opt/deployments/app/bin/app")

    def test_hopeless_transfer_eventually_fails(self):
        sim, target, gridftp = make_world(failure_rate=1.0)
        report = run_install(sim, target, gridftp)
        assert not report.success
        assert "transient" in report.error
        assert gridftp.transient_failures == 3  # all attempts burned
        # retries are counted apart from the failures: 3 failed
        # attempts means only 2 re-attempts were ever made
        assert gridftp.transfer_retries == 2

    def test_zero_failure_rate_never_retries(self):
        sim, target, gridftp = make_world(failure_rate=0.0)
        report = run_install(sim, target, gridftp)
        assert report.success
        assert gridftp.transient_failures == 0
        assert gridftp.transfer_retries == 0
        assert len(gridftp.transfers) == 1

    def test_retries_are_deterministic_per_seed(self):
        outcomes = set()
        for _ in range(2):
            sim, target, gridftp = make_world(failure_rate=0.5, seed=99)
            report = run_install(sim, target, gridftp)
            outcomes.add((report.success, gridftp.transient_failures, sim.now))
        assert len(outcomes) == 1

    def test_permanent_failure_named_transient_is_not_retried(self):
        """Retryable is the error's ``transient`` flag, not its text."""
        sim, target, gridftp = make_world(failure_rate=0.0)
        recipe = parse_deployfile(RECIPE.replace(
            "http://origin/app.tgz", "http://origin/transient-solver.tgz"))
        proc = sim.process(ExpectHandler(target, gridftp).execute(recipe))
        sim.run(until=proc)
        report = proc.value
        assert not report.success
        assert "unresolvable URL: http://origin/transient-solver.tgz" in report.error
        assert gridftp.transfer_retries == 0
        # session + mkdir + the download's client start; no back-off
        assert sim.now == pytest.approx(2.1 + 0.01 + 0.05)

    def test_direct_fetch_raises_without_retry(self):
        """The retry policy lives in the handler, not in GridFTP."""
        sim, target, gridftp = make_world(failure_rate=1.0)

        def fetch():
            try:
                yield from gridftp.fetch_url("http://origin/app.tgz", "/tmp/x")
            except TransferError:
                return "failed-once"

        proc = sim.process(fetch())
        sim.run(until=proc)
        assert proc.value == "failed-once"
        assert gridftp.transient_failures == 1
        assert gridftp.transfer_retries == 0

    def test_failure_draws_keyed_per_source_path(self):
        """Fault draws for one transfer never perturb another's."""
        sim, target, gridftp = make_world(failure_rate=0.5, seed=11)
        draws = [
            sim.rng.uniform(f"gridftp-fail:target:/www/{n}.tgz", 0.0, 1.0)
            for n in ("a", "b")
        ]
        assert draws[0] != draws[1]
