"""One stop contract for every owner of a background loop, and the
VO-wide shutdown built on it (``vo.stop()`` + ``check_vo_quiescent``)."""

import math

import pytest

from repro.experiments.workload import publish_installable_type
from repro.faults import FaultsConfig
from repro.glare.lifecycle import LifecycleController
from repro.glare.monitors import CacheRefresher
from repro.invariants import check_vo_invariants, check_vo_quiescent
from repro.obs.metrics import MetricsRecorder
from repro.obs.slo import SLOEngine, SLOSpec
from repro.orchestrate.spec import DeploymentSpec, OrchestrationConfig
from repro.simkernel import CPU, LoadAverage, Simulator
from repro.vo import VOConfig, build_vo
from repro.wsrf import LifetimeManager, ServiceGroup

from tests.orchestrate.test_reconciler import BOOT, build as build_reconciler


def quiet_vo(**config):
    """A VO whose every loop ``build_vo`` started is stopped and drained."""
    vo = build_vo(monitors=False, lifecycle=False, **config)
    vo.stop()
    vo.sim.run()
    assert check_vo_quiescent(vo) == []
    return vo


# Each factory returns ``(sim, owner)`` with nothing else on the agenda;
# the rows are the ten owners of a ``Periodic``.

def monitor():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, CacheRefresher(vo.rdm("agrid01"), interval=5.0)


def lifecycle_controller():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, LifecycleController(
        vo.rdm("agrid01"), min_check_interval=5.0, ensure_minimums=True)


def lifetime_manager():
    sim = Simulator()
    return sim, LifetimeManager(sim, interval=5.0)


def service_group():
    sim = Simulator()
    return sim, ServiceGroup(sim, refresh_interval=5.0)


def load_average():
    sim = Simulator()
    return sim, LoadAverage(sim, CPU(sim))


def mds_keepalive():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, vo.stack("agrid01").index


def metrics_recorder():
    vo = quiet_vo(n_sites=2, seed=3)
    return vo.sim, MetricsRecorder(vo, interval=5.0)


def slo_engine():
    sim = Simulator()
    engine = SLOEngine([SLOSpec(name="avail", endpoint="*", target=0.99)])
    engine.bind(sim)
    return sim, engine


def reconciler():
    sim, _actuator, owner = build_reconciler([BOOT])
    return sim, owner


def overlay_detector():
    """The RDM of a plain member: its view started the detector, its
    own ``start()`` adds the three monitors."""
    vo = build_vo(n_sites=2, seed=3, monitors=False, lifecycle=False)
    for stack in vo.stacks.values():
        stack.index.stop()
    groups = vo.form_overlay()
    (super_peer, members), = groups.items()
    member, = (name for name in members if name != super_peer)
    return vo.sim, vo.rdm(member)


OWNERS = [
    monitor, lifecycle_controller, lifetime_manager, service_group,
    load_average, mds_keepalive, metrics_recorder, slo_engine, reconciler,
    overlay_detector,
]


@pytest.mark.parametrize("make", OWNERS, ids=lambda make: make.__name__)
def test_stop_contract(make):
    sim, owner = make()
    owner.start()
    owner.start()  # idempotent: still one loop for one stop() to end
    sim.run(until=sim.now + 12.5)
    assert owner.running and not math.isinf(sim.peek())

    owner.stop()
    sim.run(until=sim.now + 1000.0)  # bounded: a leaked loop fails, not hangs
    assert math.isinf(sim.peek())
    assert not owner.running
    owner.stop()  # a no-op
    assert math.isinf(sim.peek())


def test_vo_stop_quiesces_an_observed_vo():
    vo = build_vo(n_sites=8, seed=7, observability=True)
    vo.form_overlay()
    vo.sim.run(until=44.15)
    running = [owner for owner in vo.background() if owner.running]
    # per site: lifecycle, RDM, MDS keepalive (the community index has
    # no upstream); VO-wide: the metrics recorder
    assert len(running) == 8 * 3 - 1 + 1
    assert check_vo_quiescent(vo) != []

    vo.stop()
    vo.sim.run()
    assert vo.sim.now == 44.15  # nothing was left to wait for
    assert check_vo_quiescent(vo) == []
    vo.stop()  # idempotent
    assert check_vo_quiescent(vo) == []


def test_vo_stop_reaches_loops_a_caller_started():
    vo = quiet_vo(n_sites=2, seed=3, slos=(
        SLOSpec(name="avail", endpoint="*", target=0.99),))
    for stack in vo.stacks.values():
        stack.site.start_monitoring()
        stack.atr.aggregation.start()
        stack.adr.aggregation.start()
        stack.index.aggregation.start()
    vo.obs.slo.start()
    vo.sim.run(until=vo.sim.now + 40.0)
    assert len([o for o in vo.background() if o.running]) == 2 * 4 + 1
    vo.stop()
    vo.sim.run()
    assert check_vo_quiescent(vo) == []


def test_orchestration_under_churn_with_observability_stops_clean():
    """A composition nothing else runs: fig19-shaped reconciler, fault
    plane churn and tracing on, stopped while a scale-out install is in
    flight."""
    vo = build_vo(VOConfig(
        n_sites=5, seed=19, monitors=False, lifecycle=True,
        lifecycle_sweep_interval=1.0, gram_overhead=0.05, observability=True,
        faults=FaultsConfig(churn_times=(4.0, 14.0), churn_downtime=6.0),
        orchestration=OrchestrationConfig(
            specs=(DeploymentSpec(
                "Hot", min_replicas=3, max_replicas=4, target_utilization=0.6,
                avoid_sites=("agrid00",),
            ),),
            interval=2.0, drain_grace=3.0, scale_in_rounds=2, scale_out_step=1,
            max_actions_per_round=4, utilization_smoothing=0.5,
        ),
    ))
    vo.faults.churn_selector = lambda: "agrid02"
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
    rounds_before = len(vo.reconciler.rounds)

    vo.stop()
    vo.sim.run()  # the fault plane's finite schedule plays out too
    assert len(vo.reconciler.rounds) == rounds_before  # the round was cut
    assert check_vo_quiescent(vo) == []
    assert check_vo_invariants(vo) == []
