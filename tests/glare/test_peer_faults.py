"""A peer that gives no answer fails one way.

Paper §3.3: the super-peer overlay manages itself — it detects a lost
super-peer, verifies, votes and takes over — and "if some sites or
services fail, the rest of the GLARE system continues working".  Every
best-effort call between RDM peers goes through
``GlareRDMService.ask``, so a peer that is offline, silent, shedding or
faulted reads as no answer on all of them alike.  These tests fault
each peer op in turn, shed a busy super-peer's health checks and drop a
faulted peer from a resolution walk; each run completes and, stopped
and drained, audits clean.
"""

import pytest

from repro.faults import CrashSpec, FaultsConfig, ServiceErrorRule
from repro.glare.errors import CLIENT_ERRORS
from repro.glare.model import (
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
)
from repro.glare.rdm import RDM_SERVICE
from repro.glare.resolution import ResolutionConfig
from repro.glare.storage import StorageConfig
from repro.invariants import audit
from repro.vo import build_vo

#: every op one RDM calls on another: the overlay protocol, the
#: resolution walk and the scaled directory's notes and lookups
PEER_OPS = (
    "election_notice", "group_assign", "peer_assign", "ping", "sp_missing",
    "sp_verify", "sp_update", "local_lookup", "sp_lookup", "digest_note",
    "shard_note", "shard_lookup",
)

TYPE_XML = (
    '<ActivityTypeEntry name="{name}" kind="concrete">'
    "<Domain>peer-faults</Domain>"
    '<Function name="run"><Input>data</Input><Output>result</Output></Function>'
    "</ActivityTypeEntry>"
)

#: the 9-site election (ranks are static, so any seed) makes agrid01
#: the super-peer of agrid03 and agrid05, agrid03 ranking higher
VICTIM, CRASH_AT, HORIZON = "agrid01", 40.0, 200.0
#: this seed's fault draws hit every matrix row's op at least once
SEED = 10


def load_type(vo, home, type_name):
    """``type_name`` and one ACTIVE service deployment of it on ``home``."""
    stack = vo.stack(home)
    stack.atr.add_local_type(ActivityType.from_xml(TYPE_XML.format(name=type_name)))
    lower = type_name.lower()
    stack.adr.add_local_deployment(ActivityDeployment(
        name=f"{lower}-svc", type_name=type_name,
        kind=DeploymentKind.SERVICE, site=home,
        endpoint=f"https://{home}:8443/wsrf/services/{type_name}",
        status=DeploymentStatus.ACTIVE,
    ))


def resolve(vo, site, type_name, outcomes):
    """A client at ``site`` resolves ``type_name``; the outcome is recorded."""
    try:
        yield from vo.client_call(site, "get_deployments", payload=type_name)
        outcomes.append("ok")
    except CLIENT_ERRORS as error:
        outcomes.append(type(error).__name__)


def stop_and_audit(vo):
    vo.network.stop()
    vo.sim.run()
    assert vo.sim.peek() == float("inf")
    assert audit(vo.network) == []


def run_faulted(op, seed=SEED, monitors=False):
    """Half of ``op``'s dispatches fail on a scaled, routed VO that
    loses a super-peer at ``CRASH_AT``; every site but the victim
    resolves a type homed across the VO before the crash and again once
    the takeover had time to run.  Returns the VO, paused at
    ``HORIZON``, and the resolutions' outcomes."""
    vo = build_vo(
        n_sites=9, seed=seed, monitors=monitors,
        resolution=ResolutionConfig.all_on(),
        storage=StorageConfig.sharded(shards=4, routing=True),
        faults=FaultsConfig(
            crashes=(CrashSpec(site=VICTIM, at=CRASH_AT),),
            service_errors=(ServiceErrorRule(service=RDM_SERVICE, method=op, rate=0.5),),
        ),
    )
    names = vo.site_names
    # loaded before the overlay forms: claims travel as bulk notes
    for index, home in enumerate(names):
        load_type(vo, home, f"PeerType{index}")
    vo.form_overlay()
    outcomes = []

    def clients():
        for start in (vo.sim.now, CRASH_AT + 100.0):
            if vo.sim.now < start:
                yield vo.sim.timeout(start - vo.sim.now)
            for index, site in enumerate(names):
                if site != VICTIM:
                    target = f"PeerType{(index + 4) % len(names)}"
                    vo.sim.process(resolve(vo, site, target, outcomes))

    vo.sim.process(clients())
    vo.sim.run(until=HORIZON)
    return vo, outcomes


@pytest.mark.parametrize("op", PEER_OPS)
def test_a_faulted_peer_op_never_ends_the_run(op):
    """The election, the takeover, the directory and the walks all read
    a fault as no answer: the run completes and audits clean.  A site a
    faulted election never placed may answer ``TypeNotFound``, so the
    outcomes are counted, not judged.  The index monitor is off: its
    membership-driven re-elections are the next test's."""
    vo, outcomes = run_faulted(op)
    assert vo.faults.service_errors_injected > 0
    assert len(outcomes) == 2 * (len(vo.site_names) - 1)
    stop_and_audit(vo)


@pytest.mark.xfail(strict=True, reason=(
    "a site that a re-election's lost notice or assignment leaves out keeps "
    "the previous election's view: the overlay has no repair for it"))
def test_a_reelection_that_loses_an_assignment_leaves_no_stale_view():
    """With the index monitor on, the crash re-runs the election; a lost
    ``peer_assign`` then leaves a member on its old super-peer's epoch,
    which ``one-epoch-per-group`` flags."""
    vo, _ = run_faulted("peer_assign", seed=5, monitors=True)
    stop_and_audit(vo)


def test_a_busy_super_peer_is_never_shed_from_its_overlay():
    """Every super-peer holds its admission limit's worth of long
    instantiations for the whole run; its members' pings are control
    ops, so they get through and nobody takes over a live site."""
    vo = build_vo(n_sites=9, seed=SEED, monitors=False, lifecycle=False,
                  admission_limit=2)
    vo.form_overlay()
    super_peers = vo.super_peers()
    for site in super_peers:
        load_type(vo, site, f"Busy{site}")
        for _ in range(2):
            vo.sim.process(vo.client_call(
                site, "instantiate",
                payload={"key": f"{site}:busy{site}-svc", "demand": 250.0}))
    vo.sim.run(until=vo.sim.now + 200.0)
    for site in super_peers:
        rdm = vo.rdm(site)
        assert rdm.inflight >= rdm.admission_limit
        assert rdm.shed_by_op.get("ping", 0) == 0
    assert sum(vo.rdm(s).overlay.reelections for s in vo.site_names) == 0
    assert vo.super_peers() == super_peers
    stop_and_audit(vo)


def test_a_faulted_peer_is_dropped_from_the_walk():
    """A group peer whose ``local_lookup`` always faults is counted in
    ``fanout_failures`` and left out; the super-peer tier answers."""
    # in agrid01's group, agrid03 asks and agrid05 faults
    client, faulty = "agrid03", "agrid05"
    vo = build_vo(n_sites=9, seed=SEED, monitors=False, lifecycle=False,
                  faults=FaultsConfig(service_errors=(ServiceErrorRule(
                      service=RDM_SERVICE, method="local_lookup", dst=faulty,
                      rate=1.0),)))
    groups = vo.form_overlay()
    assert sorted(groups[VICTIM]) == [VICTIM, client, faulty]
    load_type(vo, "agrid07", "FarType")
    outcomes = []
    vo.run_process(resolve(vo, client, "FarType", outcomes))
    manager = vo.rdm(client).request_manager
    assert outcomes == ["ok"]
    assert manager.fanout_failures == {faulty: 1}
    assert manager.resolved_via_superpeer == 1
    stop_and_audit(vo)
