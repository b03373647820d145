"""The VO audit: one refutation per clause, the runner seam, the scope.

Each case doctors an audit-clean VO so that it breaks exactly one
clause, and :func:`repro.invariants.audit` must then report exactly
that ``(plane, clause)`` — so a clause that stops firing, or one that
fires for its neighbour's fault, fails here.
"""

import gc
import re
import types
import weakref
from pathlib import Path

import pytest

import repro
from repro.experiments.harness import Experiment, run_experiment
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.workload import plain_type_xml, register_served_type
from repro.glare.registry import ActivityDeploymentRegistry
from repro.glare.superpeer import MemberInfo
from repro.invariants import audit, audit_scope
from repro.runner import WorkerError, WorkUnit
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
    assert audit(vo) == []
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
]

#: (clause, doctor) applied after ``vo.stop(); vo.sim.run()``
SHUTDOWN_CASES = [
    ("agenda-empty", lambda vo: vo.sim.timeout(1.0)),
    ("cpu-released", lambda vo: setattr(vo.network.node("agrid01").cpu, "_busy", 1)),
    ("no-rpc-in-flight", lambda vo: setattr(vo.network.node("agrid01"), "inflight_rpcs", 1)),
    ("spans-closed", lambda vo: vo.obs.tracer.span("leaked").__enter__()),
    ("loops-stopped", lambda vo: setattr(vo, "reconciler", types.SimpleNamespace(
        running=True, stop=lambda: None))),
]


@pytest.mark.parametrize("plane, clause, doctor", STATE_CASES,
                         ids=[f"{plane}:{clause}" for plane, clause, _ in STATE_CASES])
def test_a_broken_state_clause_is_reported_alone(plane, clause, doctor):
    vo = consistent_vo()
    doctor(vo)
    assert [(v.plane, v.clause) for v in audit(vo)] == [(plane, clause)]


@pytest.mark.parametrize("clause, doctor", SHUTDOWN_CASES,
                         ids=[clause for clause, _ in SHUTDOWN_CASES])
def test_a_broken_shutdown_clause_is_reported_alone(clause, doctor):
    vo = consistent_vo(observability=True)
    vo.stop()
    vo.sim.run()
    assert audit(vo) == []
    keep = doctor(vo)  # noqa: F841 - a timeout nobody holds is recycled
    assert [(v.plane, v.clause) for v in audit(vo)] == [("vo", clause)]


def test_a_span_leaked_in_a_spawned_process_breaks_spans_closed():
    """A fan-out leg (spawned under a span) that leaks a span is caught."""
    vo = consistent_vo(observability=True)
    vo.stop()
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
    assert [(v.plane, v.clause, v.detail) for v in audit(vo)] == [
        ("vo", "spans-closed", "leaked span leaked-in-leg")]


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


def clean_unit():
    build_vo(n_sites=2, seed=5, monitors=False)
    return "returned"


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_unit_breaking_a_clause_fails_its_experiment(monkeypatch, jobs):
    experiment = Experiment(
        name="doctored", summary="one dirty unit", quick=None, full=None,
        units=lambda grid: [WorkUnit("doctored:clean", "tests.test_audit:clean_unit"),
                            WorkUnit("doctored:dirty", "tests.test_audit:dirty_unit")],
        render=str)
    monkeypatch.setitem(EXPERIMENTS, "doctored", experiment)
    with pytest.raises(WorkerError) as raised:
        run_experiment("doctored", quick=True, jobs=jobs)
    text = str(raised.value)
    assert "'doctored:dirty'" in text
    assert f"{ADR}@agrid01 'by-type-known'" in text


def test_build_vo_retains_a_vo_only_inside_a_scope():
    ref = weakref.ref(build_vo(n_sites=2, seed=1, monitors=False))
    gc.collect()
    assert ref() is None
    with audit_scope() as vos:
        vo = build_vo(n_sites=2, seed=1, monitors=False)
        with audit_scope() as inner:
            build_vo(n_sites=2, seed=2, monitors=False)
    assert vos == [vo] and len(inner) == 1
