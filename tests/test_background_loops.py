"""One stop contract for every kind of background loop (each is a
``Periodic``), and the VO-wide shutdown built on it (``vo.network.stop()`` +
the audit's shutdown clauses)."""

import math
from collections import Counter

import pytest

from repro.experiments.workload import publish_installable_type
from repro.faults import CrashSpec, FaultsConfig
from repro.glare.lifecycle import LifecycleController
from repro.glare.monitors import CacheRefresher
from repro.invariants import audit
from repro.obs import Observability
from repro.obs.metrics import MetricsRecorder
from repro.obs.slo import SLOEngine, SLOSpec
from repro.orchestrate.spec import DeploymentSpec
from repro.simkernel import CPU, LoadAverage, Simulator, entries
from repro.vo import VOConfig, build_vo
from repro.wsrf import LifetimeManager, ServiceGroup

from tests.orchestrate.test_reconciler import BOOT, build as build_reconciler


def quiet_vo(**config):
    """A VO whose every loop ``build_vo`` started is stopped and drained."""
    vo = build_vo(monitors=False, lifecycle=False, **config)
    vo.network.stop()
    vo.sim.run()
    assert audit(vo.network) == []
    return vo


# Each factory returns ``(sim, loop)`` with nothing else on the agenda;
# the rows are the ten places a ``Periodic`` is built.

def monitor():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, CacheRefresher(vo.rdm("agrid01"), interval=5.0)


def lifecycle_controller():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, LifecycleController(
        vo.rdm("agrid01"), min_check_interval=5.0, ensure_minimums=True).minimums


def lifetime_manager():
    sim = Simulator()
    return sim, LifetimeManager(sim, interval=5.0)


def service_group():
    sim = Simulator()
    return sim, ServiceGroup(sim, refresh_interval=5.0).refresher


def load_average():
    sim = Simulator()
    return sim, LoadAverage(sim, CPU(sim))


def mds_keepalive():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, vo.stack("agrid01").index.keepalive


def metrics_recorder():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, MetricsRecorder(vo, interval=5.0)


def slo_engine():
    sim = Simulator()
    engine = SLOEngine([SLOSpec(name="avail", endpoint="*", target=0.99)])
    engine.bind(sim)
    return sim, engine.evaluator


def reconciler():
    sim, _actuator, owner = build_reconciler([BOOT])
    return sim, owner


def overlay_detector():
    """A plain member's failure detector, which its view started."""
    vo = build_vo(n_sites=2, seed=3, monitors=False, lifecycle=False)
    for stack in vo.stacks.values():
        stack.index.keepalive.stop()
    groups = vo.form_overlay()
    (super_peer, members), = groups.items()
    member, = (name for name in members if name != super_peer)
    detector = vo.rdm(member).overlay.detector
    assert detector.running
    return vo.sim, detector


OWNERS = [
    monitor, lifecycle_controller, lifetime_manager, service_group,
    load_average, mds_keepalive, metrics_recorder, slo_engine, reconciler,
    overlay_detector,
]


@pytest.mark.parametrize("make", OWNERS, ids=lambda make: make.__name__)
def test_stop_contract(make):
    sim, loop = make()
    loop.start()
    loop.start()  # idempotent: still one loop for one stop() to end
    sim.run(until=sim.now + 12.5)
    assert loop.running and not math.isinf(sim.peek())

    loop.stop()
    sim.run(until=sim.now + 1000.0)  # bounded: a leaked loop fails, not hangs
    assert math.isinf(sim.peek())
    assert not loop.running
    loop.stop()  # a no-op
    assert math.isinf(sim.peek())


def test_vo_stop_quiesces_an_observed_vo():
    vo = build_vo(n_sites=8, seed=7, observability=True)
    vo.form_overlay()
    vo.sim.run(until=44.15)
    running = Counter(loop.name.split(":")[0]
                      for loop in vo.network.background() if loop.running)
    # per site: the lifetime sweep, the three RDM monitors and the MDS
    # keepalive (the community index has no upstream); a plain member's
    # failure detector (three of the eight sites are super-peers);
    # VO-wide: the metrics recorder
    assert running == {
        "wsrf-lifetime": 8, "index-monitor": 8, "cache-refresher": 8,
        "deployment-status-monitor": 8, "mds-keepalive": 7, "sp-probe": 5,
        "metrics-recorder": 1,
    }
    assert audit(vo.network) == []  # running: the shutdown clauses do not apply yet

    vo.network.stop()
    assert {v.clause for v in audit(vo.network)} == {"agenda-empty"}  # not drained
    vo.sim.run()
    assert vo.sim.now == 44.15  # nothing was left to wait for
    assert audit(vo.network) == []
    vo.network.stop()  # idempotent
    assert audit(vo.network) == []


def test_vo_stop_reaches_loops_a_caller_started():
    vo = quiet_vo(n_sites=2, seed=3, observability=Observability(
        enabled=False, slos=(SLOSpec(name="avail", endpoint="*", target=0.99),)))
    for stack in vo.stacks.values():
        stack.site.loadavg.start()
        stack.atr.aggregation.refresher.start()
        stack.adr.aggregation.refresher.start()
        stack.index.aggregation.refresher.start()
    vo.obs.slo.evaluator.start()
    vo.sim.run(until=vo.sim.now + 40.0)
    assert len([o for o in vo.network.background() if o.running]) == 2 * 4 + 1
    vo.network.stop()
    vo.sim.run()
    assert audit(vo.network) == []


def test_orchestration_under_churn_with_observability_stops_clean():
    """A composition nothing else runs: fig19-shaped reconciler, fault
    plane churn and tracing on, stopped while a scale-out install is in
    flight."""
    vo = build_vo(VOConfig(
        n_sites=5, seed=19, monitors=False, lifecycle=True,
        lifecycle_sweep_interval=1.0, gram_overhead=0.05, observability=True,
        faults=FaultsConfig(crashes=(CrashSpec("agrid02", at=4.0, down_for=6.0),
                                     CrashSpec("agrid02", at=14.0, down_for=6.0))),
        orchestration=(DeploymentSpec(
            "Hot", min_replicas=3, max_replicas=4, target_utilization=0.6,
            avoid_sites=("agrid00",),
        ),),
    ))
    type_xml = publish_installable_type(
        vo, "Hot", domain="compose", archive_size=1_500_000,
        configure_demand=0.25, install_demand=0.15, binary_size=400_000,
    )
    seeded = vo.run_process(vo.client_call(
        "agrid01", "deploy", payload={"type_xml": type_xml}))
    assert seeded["success"]

    def reconciler_installing():
        return any(span.name == "deploy:rollout"
                   for span in vo.obs.tracer.open_spans())

    while not reconciler_installing():
        assert vo.sim.now < 30.0, "the reconciler never scaled out"
        vo.sim.run(until=vo.sim.now + 0.05)
    assert not vo.stack("agrid02").site.online  # churn is biting
    rounds_before = len(entries(vo.sim.journal, "orchestrate", "round"))

    vo.network.stop()
    # the fault plane's finite schedule plays out too; bounded, so a
    # loop a restart revived fails here instead of hanging
    vo.sim.run(until=vo.sim.now + 1000)
    assert math.isinf(vo.sim.peek())
    # the round was cut
    assert len(entries(vo.sim.journal, "orchestrate", "round")) == rounds_before
    assert audit(vo.network) == []
