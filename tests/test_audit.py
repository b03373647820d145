"""The VO audit: one refutation per clause, the runner seam, the scope.

Each case doctors an audit-clean VO so that it breaks exactly one
clause, and :func:`repro.invariants.audit` must then report exactly
that ``(plane, clause)`` — so a clause that stops firing, or one that
fires for its neighbour's fault, fails here.
"""

import dataclasses
import gc
import re
import types
import weakref
from pathlib import Path

import pytest

import repro
from repro.experiments.harness import Experiment, run_experiment
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.workload import (
    active_deployment,
    placed,
    plain_type_xml,
    register_served_type,
)
from repro.glare.registry import ActivityDeploymentRegistry
from repro.glare.superpeer import MemberInfo
from repro.invariants import audit, audit_scope
from repro.load import OpenLoopDriver, StreamStats
from repro.net.network import Network
from repro.net.topology import Topology
from repro.orchestrate import DeploymentSpec, Reconciler
from repro.runner import WorkerError, WorkUnit
from repro.simkernel import Simulator
from repro.vo import build_vo
from repro.wsrf import WSResource
from repro.wsrf.xmldoc import Element

KEY = "agrid01:inv-bin"
BINARY = "/opt/deployments/inv/bin/run"


def consistent_vo(**config):
    """Four sites in two groups — agrid01 leads agrid03, agrid02 leads
    agrid00 — with type Inv and its placed binary on agrid01, cached by
    agrid02, and a deployment-less type Bare on agrid03."""
    vo = build_vo(n_sites=4, seed=401, monitors=False, lifecycle=False, **config)
    vo.form_overlay()
    register_served_type(vo, "agrid01", "Inv", "audit")
    vo.run_process(vo.client_call("agrid03", "register_type",
                                  payload={"xml": plain_type_xml("Bare", "audit")}))
    vo.run_process(vo.client_call("agrid02", "get_deployments",
                                  payload={"type": "Inv", "auto_deploy": False}))
    assert vo.sim.peek() < float("inf")  # still running: no shutdown clause
    assert audit(vo.network) == []
    return vo


def view(vo, site):
    return vo.rdm(site).overlay.view


def replay_the_expired_self_cache(vo):
    """The deploy initiator cached what it installed on itself; the
    removal forgot that same-key copy."""
    adr = vo.stack("agrid01").adr
    resource = adr.home.lookup(KEY)
    adr.add_cached(adr.deployments[KEY], resource.epr)
    super(ActivityDeploymentRegistry, adr).unpublish(resource)
    del adr.deployments[KEY]


def leave_a_stale_replica(vo):
    vo.publish_archive("http://origin/archives/a.tgz", 10)
    vo.url_catalog.add_replica("http://origin/archives/a.tgz", "agrid01",
                               "/scratch/a.tgz")


def register_past_max_replicas(vo):
    """A reconciler converged on Inv at max_replicas=1; a second ACTIVE
    registration then lands beside the first."""
    agent = vo.stack(vo.community_site).agent
    agent.reconciler = Reconciler(vo.rdm(vo.community_site),
                                  (DeploymentSpec("Inv", max_replicas=1),))
    assert vo.run_process(agent.reconciler.reconcile_once()).converged
    assert audit(vo.network) == []
    spare = dataclasses.replace(active_deployment("Inv", "agrid01"),
                                name="inv-spare", path=f"{BINARY}-spare")
    vo.run_process(vo.client_call("agrid01", "register_deployment",
                                  payload={"xml": placed(vo, spare).wire_xml()}))


def double_count_a_hit(vo):
    """A mutant local hit bumps ``resolved_locally`` twice; agrid02
    then answers Inv from its cache."""
    manager = vo.rdm("agrid02").request_manager
    answer = manager._local_answer

    def twice(type_name, exclude_sites):
        wires, local = answer(type_name, exclude_sites)
        if wires is not None:
            manager.resolved_locally += 1
        return wires, local

    manager._local_answer = twice
    vo.run_process(vo.client_call("agrid02", "get_deployments",
                                  payload={"type": "Inv", "auto_deploy": False}))


def start_a_loop_on_a_crashed_site(vo):
    """The crash stopped agrid03's loops; a caller then starts one."""
    vo.faults.crash("agrid03")
    assert audit(vo.network) == []
    vo.stack("agrid03").site.loadavg.start()


def book_an_outcome_never_fired(vo):
    """A load driver's stats book an outcome for an arrival it never fired."""
    OpenLoopDriver(vo.network, StreamStats()).stats.ok("resolve", 0.1, 0.0)


ATR, ADR = "activity-type-registry", "activity-deployment-registry"

#: (plane, clause, doctor): the doctor breaks exactly that clause
STATE_CASES = [
    (f"{ATR}@agrid02", "cache-sourced",
     lambda vo: vo.stack("agrid02").atr.cache_sources.pop("Inv")),
    (f"{ATR}@agrid02", "own-cache-in-home",
     lambda vo: vo.stack("agrid02").atr.cache_sources.update(
         Inv=vo.stack("agrid02").atr._epr_for("Inv"))),
    (f"{ATR}@agrid03", "group-is-home",
     lambda vo: vo.stack("agrid03").atr.aggregation.remove(
         vo.stack("agrid03").atr.home.lookup("Bare").epr)),
    (f"{ATR}@agrid03", "types-in-hierarchy",
     lambda vo: vo.stack("agrid03").atr.hierarchy.remove("Bare")),
    (f"{ADR}@agrid02", "cache-sourced",
     lambda vo: vo.stack("agrid02").adr.cache.add(WSResource(
         "ghost", Element("Ghost"), vo.stack("agrid02").adr._epr_for("ghost")))),
    (f"{ADR}@agrid01", "own-cache-in-home", replay_the_expired_self_cache),
    (f"{ADR}@agrid01", "by-type-known",
     lambda vo: vo.stack("agrid01").adr.by_type["Inv"].append("ghost:key")),
    (f"{ADR}@agrid01", "by-type-complete",
     lambda vo: vo.stack("agrid01").adr.by_type["Inv"].remove(KEY)),
    (f"{ADR}@agrid01", "deployments-here",
     lambda vo: setattr(vo.stack("agrid01").adr.deployments[KEY], "site", "agrid03")),
    (f"{ADR}@agrid01", "deployments-typed",
     lambda vo: vo.stack("agrid01").atr.unpublish(
         vo.stack("agrid01").atr.home.lookup("Inv"))),
    (f"{ADR}@agrid02", "cache-tables-agree",
     lambda vo: vo.stack("agrid02").adr.cache_sources.update(
         ghost=vo.stack("agrid02").adr._epr_for("ghost"))),
    ("mds-index@agrid01", "workers-held-by-queries",
     lambda vo: vo.stack("agrid01").index._worker_pool.request()),
    ("gridftp@agrid01", "replicas-on-disk", leave_a_stale_replica),
    ("glare-rdm@agrid01", "active-on-disk",
     lambda vo: vo.stack("agrid01").site.fs.remove_file(BINARY)),
    ("glare-rdm@agrid02", "resolutions-counted", double_count_a_hit),
    ("overlay", "super-peer-self",
     lambda vo: setattr(view(vo, "agrid01"), "super_peer", "agrid03")),
    ("overlay", "member-of-own-group",
     lambda vo: setattr(view(vo, "agrid03"), "members", view(vo, "agrid01").members[:1])),
    ("overlay", "super-peer-member",
     lambda vo: setattr(view(vo, "agrid03"), "members", view(vo, "agrid01").members[1:])),
    ("overlay", "one-epoch-per-group",
     lambda vo: setattr(view(vo, "agrid03"), "epoch", view(vo, "agrid03").epoch + 1)),
    ("overlay", "one-claim-per-epoch",
     lambda vo: view(vo, "agrid02").members.append(MemberInfo("agrid03", 0))),
    ("network", "traffic-conserved",
     lambda vo: setattr(vo.network.node("agrid01"), "bytes_out",
                        vo.network.node("agrid01").bytes_out + 1)),
    ("orchestrate@agrid00", "replicas-in-bounds", register_past_max_replicas),
    ("faults", "offline-loops-stopped", start_a_loop_on_a_crashed_site),
    ("open-loop", "requests-conserved", book_an_outcome_never_fired),
]

#: (clause, doctor) applied after ``vo.network.stop(); vo.sim.run()``
SHUTDOWN_CASES = [
    ("agenda-empty", lambda vo: vo.sim.timeout(1.0)),
    ("cpu-released", lambda vo: setattr(vo.network.node("agrid01").cpu, "_busy", 1)),
    ("no-rpc-in-flight", lambda vo: setattr(vo.network.node("agrid01"), "inflight_rpcs", 1)),
    ("links-released", lambda vo: vo.network._claim((("agrid00", "agrid01"),), 1.0)),
    ("spans-closed", lambda vo: vo.obs.tracer.span("leaked").__enter__()),
    ("loops-stopped", lambda vo: setattr(vo.obs, "recorder", types.SimpleNamespace(
        name="stray", running=True, stop=lambda: None))),
]


@pytest.mark.parametrize("plane, clause, doctor", STATE_CASES,
                         ids=[f"{plane}:{clause}" for plane, clause, _ in STATE_CASES])
def test_a_broken_state_clause_is_reported_alone(plane, clause, doctor):
    vo = consistent_vo()
    doctor(vo)
    assert [(v.plane, v.clause) for v in audit(vo.network)] == [(plane, clause)]


@pytest.mark.parametrize("clause, doctor", SHUTDOWN_CASES,
                         ids=[clause for clause, _ in SHUTDOWN_CASES])
def test_a_broken_shutdown_clause_is_reported_alone(clause, doctor):
    vo = consistent_vo(observability=True)
    vo.network.stop()
    vo.sim.run()
    assert audit(vo.network) == []
    keep = doctor(vo)  # noqa: F841 - a timeout nobody holds is recycled
    assert [(v.plane, v.clause) for v in audit(vo.network)] == [("vo", clause)]


def test_a_span_leaked_in_a_spawned_process_breaks_spans_closed():
    """A fan-out leg (spawned under a span) that leaks a span is caught."""
    vo = consistent_vo(observability=True)
    vo.network.stop()
    vo.sim.run()
    sim, tracer = vo.sim, vo.obs.tracer

    def sloppy_leg():
        tracer.span("leaked-in-leg").__enter__()
        yield sim.timeout(0.0)

    def fanout():
        with tracer.span("fanout"):
            yield sim.process(sloppy_leg())

    sim.process(fanout())
    sim.run()
    assert [(v.plane, v.clause, v.detail) for v in audit(vo.network)] == [
        ("vo", "spans-closed", "leaked span leaked-in-leg")]


def test_a_span_leaked_on_a_running_vo_breaks_spans_closed():
    """A dead owner never closes its span: no stop is needed to see it."""
    vo = consistent_vo(observability=True)
    vo.obs.tracer.span("leaked").__enter__()
    assert [(v.plane, v.clause) for v in audit(vo.network)] == [("vo", "spans-closed")]


def test_every_declared_clause_has_a_refutation():
    root = Path(repro.__file__).parent
    declared = {clause for path in root.rglob("*.py")
                for clause in re.findall(r'yield "([a-z]+(?:-[a-z]+)+)", ',
                                         path.read_text())}
    refuted = ({clause for _, clause, _ in STATE_CASES}
               | {clause for clause, _ in SHUTDOWN_CASES})
    assert declared == refuted


# -- the runner seam ---------------------------------------------------------

def dirty_unit():
    """A unit whose VO breaks one clause (importable by pool workers)."""
    vo = build_vo(n_sites=2, seed=5, monitors=False)
    vo.stack("agrid01").adr.by_type.setdefault("Ghost", []).append("ghost:key")
    return "returned"


def endless_unit():
    """A unit whose VO is left with a process that never ends."""
    vo = build_vo(n_sites=2, seed=5, monitors=False)

    def forever():
        while True:
            yield vo.sim.timeout(1.0)

    vo.sim.process(forever())
    return "returned"


def bare_network(seed=5):
    """A one-server world of the figs. 10/11/13 kind: no ``build_vo``."""
    sim = Simulator(seed=seed)
    network = Network(sim, Topology.star("server", ["c0"], latency=0.004,
                                         bandwidth=12.5e6))
    network.add_node("server")
    network.add_node("c0")
    return network


def endless_bare_unit():
    """A unit whose bare network is left with a process that never ends."""
    sim = bare_network().sim

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    return "returned"


def clean_unit():
    build_vo(n_sites=2, seed=5, monitors=False)
    bare_network()
    return "returned"


@pytest.mark.parametrize("unit, jobs, broken", [
    ("dirty_unit", 1, f"{ADR}@agrid01 'by-type-known'"),
    ("dirty_unit", 2, f"{ADR}@agrid01 'by-type-known'"),
    ("endless_unit", 1, "vo 'agenda-empty'"),  # the runner stops and drains
    ("endless_bare_unit", 1, "vo 'agenda-empty'"),  # a world with no VO
], ids=["1", "2", "endless", "endless-bare"])
def test_a_unit_breaking_a_clause_fails_its_experiment(monkeypatch, unit, jobs,
                                                       broken):
    experiment = Experiment(
        name="doctored", summary="one dirty unit", quick=None, full=None,
        units=lambda grid: [WorkUnit("doctored:clean", "tests.test_audit:clean_unit"),
                            WorkUnit("doctored:dirty", f"tests.test_audit:{unit}")],
        render=str)
    monkeypatch.setitem(EXPERIMENTS, "doctored", experiment)
    with pytest.raises(WorkerError) as raised:
        run_experiment("doctored", quick=True, jobs=jobs)
    text = str(raised.value)
    assert "'doctored:dirty'" in text
    assert broken in text


def test_build_vo_retains_a_vo_only_inside_a_scope():
    ref = weakref.ref(build_vo(n_sites=2, seed=1, monitors=False))
    bare = weakref.ref(bare_network())
    gc.collect()
    assert ref() is None and bare() is None
    with audit_scope() as networks:
        vo = build_vo(n_sites=2, seed=1, monitors=False)
        network = bare_network()
        with audit_scope() as inner:
            build_vo(n_sites=2, seed=2, monitors=False)
            bare_network(seed=2)
    assert networks == [vo.network, network] and len(inner) == 2
