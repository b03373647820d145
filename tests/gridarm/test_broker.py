"""Tests for GridARM resource brokerage (load-aware ranking)."""

import pytest

from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
)
from repro.gridarm import ResourceBroker
from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="Solver" kind="concrete">'
    "<Domain>x</Domain></ActivityTypeEntry>"
)


def deployment_on(site, name="solver"):
    return ActivityDeployment(
        name=name, type_name="Solver", kind=DeploymentKind.EXECUTABLE,
        site=site, path=f"/opt/{name}", status=DeploymentStatus.ACTIVE,
    )


@pytest.fixture()
def vo():
    vo = build_vo(n_sites=4, seed=191, monitors=False)
    vo.form_overlay()
    for site in vo.site_names:
        vo.stack(site).site.loadavg.start()
    return vo


def test_prefers_idle_site(vo):
    # load agrid02 heavily; agrid01 stays idle.  Hogs burn CPU in short
    # quanta (time-sliced processes) so the probe RPC still gets served.
    busy = vo.stack("agrid02").site

    def hog():
        for _ in range(1000):
            yield from busy.cpu.execute(0.5)

    for _ in range(8):
        vo.sim.process(hog())
    vo.sim.run(until=vo.sim.now + 120)  # let the load average climb

    broker = ResourceBroker(vo, "agrid00")
    candidates = [deployment_on("agrid01"), deployment_on("agrid02")]
    ranked = vo.run_process(broker.rank(candidates))
    assert [r.deployment.site for r in ranked] == ["agrid01", "agrid02"]
    assert ranked[0].load_per_core < ranked[1].load_per_core


def test_offline_site_dropped(vo):
    vo.faults.crash("agrid03")
    broker = ResourceBroker(vo, "agrid00")
    candidates = [deployment_on("agrid01"), deployment_on("agrid03")]
    ranked = vo.run_process(broker.rank(candidates))
    assert [r.deployment.site for r in ranked] == ["agrid01"]


def test_failed_deployment_penalised(vo):
    good = deployment_on("agrid01", "good")
    flaky = deployment_on("agrid01", "flaky")
    flaky.last_return_code = 1
    broker = ResourceBroker(vo, "agrid00")
    ranked = vo.run_process(broker.rank([flaky, good]))
    assert ranked[0].deployment.name == "good"
    assert ranked[1].penalty >= 10.0


def test_benchmark_discounts_load(vo):
    at = ActivityType.from_xml(TYPE_XML)
    at.benchmarks = {"Intel": 4.0}
    broker = ResourceBroker(vo, "agrid00")
    ranked = vo.run_process(broker.rank([deployment_on("agrid01")], at))
    assert ranked[0].benchmark == 4.0


def test_load_aware_scheduler_spreads_parallel_work(vo):
    """With identical deployments on two sites, a loaded site loses."""
    from repro.workflow import ActivityNode, Scheduler, Workflow

    for site in ("agrid01", "agrid02"):
        vo.run_process(vo.client_call(site, "register_type",
                                      payload={"xml": TYPE_XML}))
        deployment = deployment_on(site)
        vo.run_process(vo.client_call(
            site, "register_deployment",
            payload={"xml": deployment.to_xml().to_string()},
        ))
    busy = vo.stack("agrid01").site

    def hog():
        for _ in range(1000):
            yield from busy.cpu.execute(0.5)

    for _ in range(8):
        vo.sim.process(hog())
    vo.sim.run(until=vo.sim.now + 120)

    wf = Workflow("single")
    wf.add(ActivityNode("run", "Solver", demand=1.0))
    scheduler = Scheduler(vo, "agrid00", policy="load-aware")
    schedule = vo.run_process(scheduler.map_workflow(wf, auto_deploy=False))
    assert schedule.site_of("run") == "agrid02"


def test_unknown_policy_rejected(vo):
    from repro.workflow import Scheduler, WorkflowError

    with pytest.raises(WorkflowError):
        Scheduler(vo, "agrid00", policy="random")
