"""Super-peer overlay: election, group formation, failure recovery.

Paper §3.3: GLARE bootstraps its overlay from the WS-MDS hierarchy.
The site hosting the *community index* becomes the **election
coordinator**: it notifies all registered sites (twice, the second
notification acknowledged), ranks responders by a hashcode of their
static attributes, elects the top ``ceil(n / group_size)`` sites as
super-peers, distributes the remaining members equally among them, and
tells every super-peer its group.  Within a group interaction is
peer-to-peer; across groups it goes through the super-peers.

Failure recovery: when a member notices its super-peer is gone it
computes the ranks of the surviving members and notifies the highest
ranked one, which (a) verifies the super-peer is missing, (b) verifies
its own rank, and (c) asks every member to confirm; a simple-majority
acknowledgment lets it take over as the new super-peer.

All message exchanges run over the RDM service's RPC operations — this
module holds the per-site overlay state machine, the coroutine bodies
and the six ``op_*`` handlers, which the hosting RDM service attaches as
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.net.message import Message
from repro.net.network import RpcTimeout
from repro.simkernel.errors import OfflineError
from repro.simkernel.primitives import Periodic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService


@dataclass
class MemberInfo:
    """What every group member knows about a fellow site."""

    site: str
    rank: int
    attributes: Dict[str, float] = field(default_factory=dict)


@dataclass
class OverlayView:
    """One site's current view of the overlay."""

    role: str = "unassigned"  # "peer" | "super-peer"
    group_id: int = -1
    super_peer: str = ""
    members: List[MemberInfo] = field(default_factory=list)
    super_peers: List[str] = field(default_factory=list)
    coordinator: str = ""
    epoch: int = 0

    def member_sites(self) -> List[str]:
        return [m.site for m in self.members]

    def peers_of(self, me: str) -> List[str]:
        """Other members of my group (excluding me and the super-peer)."""
        return [m.site for m in self.members if m.site != me]


class OverlayManager:
    """Per-site overlay state machine, hosted by the RDM service."""

    def __init__(
        self,
        rdm: "GlareRDMService",
        group_size: int = 3,
        probe_interval: float = 15.0,
        probe_timeout: float = 5.0,
        notice_gap: float = 1.0,
    ) -> None:
        self.rdm = rdm
        self.group_size = max(2, group_size)
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.notice_gap = notice_gap

        self.view = OverlayView()
        #: coordinator offers received this round: coordinator -> size
        self._offers: Dict[str, int] = {}
        self.elections_run = 0
        self.reelections = 0
        #: successful takeovers on this site: ``{"at", "missing",
        #: "epoch"}`` per event (experiments read recovery times here)
        self.takeover_log: List[Dict] = []
        #: the failure detector: a plain member pings its super-peer;
        #: every view that lands re-arms it (see :meth:`_restart_probe`)
        self.detector = Periodic(
            rdm.sim, probe_interval, self._check_super_peer, f"sp-probe:{self.me}"
        )
        #: a takeover verification is already running: concurrent
        #: ``sp_missing`` reports for the same failure must not each
        #: run the vote (they would all pass the pre-checks before the
        #: first one applies the new view, re-electing several times)
        self._takeover_busy = False
        #: optional hook called with the new view whenever an
        #: assignment (election or takeover) lands; the directory plane
        #: uses it to reset super-peer digests and push member claim notes
        self.on_view_applied = None

    # -- identity helpers -----------------------------------------------------

    @property
    def sim(self):
        return self.rdm.sim

    @property
    def me(self) -> str:
        return self.rdm.node_name

    @property
    def is_super_peer(self) -> bool:
        return self.view.role == "super-peer"

    def my_rank(self) -> int:
        return self.rdm.site.rank()

    def my_member_info(self) -> MemberInfo:
        d = self.rdm.site.description
        return MemberInfo(
            site=self.me,
            rank=self.my_rank(),
            attributes={
                "processor_speed_mhz": d.processor_speed_mhz,
                "memory_mb": d.memory_mb,
                "uptime_hours": d.uptime_hours,
            },
        )

    # -- coordinator side -------------------------------------------------------

    def run_election(self, member_sites: List[str]) -> Generator:
        """Coordinator body: two-phase notification, rank, partition.

        ``member_sites`` is the community index membership (includes
        this site itself when it registered).
        """
        community_size = len(member_sites)
        if community_size == 0:
            return None
        with self.rdm.obs.tracer.span(
            "overlay:election", coordinator=self.me, community=community_size
        ):
            result = yield from self._run_election_inner(member_sites)
        return result

    def _run_election_inner(self, member_sites: List[str]) -> Generator:
        """The election body itself (see :meth:`run_election`)."""
        community_size = len(member_sites)
        # First notification: informational.
        for site in member_sites:
            try:
                yield from self.rdm.rpc(
                    site, "election_notice",
                    {"coordinator": self.me, "community_size": community_size,
                     "phase": 1},
                )
            except (OfflineError, RpcTimeout):
                pass
        yield self.sim.timeout(self.notice_gap)
        # Second notification: acknowledged with rank + attributes.
        responders: List[MemberInfo] = []
        for site in member_sites:
            try:
                ack = yield from self.rdm.rpc(
                    site, "election_notice",
                    {"coordinator": self.me, "community_size": community_size,
                     "phase": 2},
                )
            except (OfflineError, RpcTimeout):
                continue
            if ack and ack.get("ack"):
                responders.append(
                    MemberInfo(
                        site=ack["site"], rank=ack["rank"],
                        attributes=ack.get("attributes", {}),
                    )
                )
        if not responders:
            return None

        responders.sort(key=lambda m: m.rank, reverse=True)
        n_groups = max(1, math.ceil(len(responders) / self.group_size))
        super_peers = responders[:n_groups]
        others = responders[n_groups:]
        # Distribute remaining members equally (round-robin by rank order).
        groups: List[List[MemberInfo]] = [[sp] for sp in super_peers]
        for index, member in enumerate(others):
            groups[index % n_groups].append(member)
        sp_sites = [sp.site for sp in super_peers]
        self.elections_run += 1
        epoch = self.elections_run

        # Notify every super-peer of its group.
        for group_id, group in enumerate(groups):
            payload = {
                "group_id": group_id,
                "super_peer": group[0].site,
                "members": [_member_wire(m) for m in group],
                "super_peers": sp_sites,
                "coordinator": self.me,
                "epoch": epoch,
            }
            try:
                yield from self.rdm.rpc(group[0].site, "group_assign", payload)
            except (OfflineError, RpcTimeout):
                continue
        return {"groups": len(groups), "super_peers": sp_sites}

    # -- member side ----------------------------------------------------------------

    def op_election_notice(self, message: Message) -> Generator:
        yield from self.rdm.compute(0.001)
        return self.handle_election_notice(message.payload)

    def handle_election_notice(self, payload: Dict) -> Optional[Dict]:
        """React to a coordinator's notification (phase 1 or 2)."""
        coordinator = payload["coordinator"]
        size = payload["community_size"]
        self._offers[coordinator] = size
        if payload["phase"] == 1:
            return None
        # Phase 2 is acknowledged — but only toward the coordinator of
        # the *smallest* community seen this round (paper §3.3).
        smallest = min(self._offers.items(), key=lambda kv: (kv[1], kv[0]))
        if smallest[0] != coordinator:
            return {"ack": False, "site": self.me}
        info = self.my_member_info()
        return {
            "ack": True,
            "site": info.site,
            "rank": info.rank,
            "attributes": info.attributes,
        }

    def op_group_assign(self, message: Message) -> Generator:
        """A super-peer learns its group; fans the view to members."""
        yield from self.rdm.compute(0.001)
        payload = message.payload
        self._apply_view(payload, role="super-peer")
        # Tell every member (detached, so the coordinator isn't blocked).
        for member in self.view.members:
            if member.site == self.me:
                continue
            self.sim.process(
                self._assign_member(member.site, payload),
                name=f"assign:{self.me}->{member.site}",
            )
        self._restart_probe()
        return {"accepted": True, "group_id": self.view.group_id}

    def _assign_member(self, site: str, payload: Dict) -> Generator:
        try:
            yield from self.rdm.rpc(site, "peer_assign", payload)
        except (OfflineError, RpcTimeout):
            pass

    def op_peer_assign(self, message: Message) -> Generator:
        """A plain member learns its group and super-peer."""
        yield from self.rdm.compute(0.001)
        payload = message.payload
        role = "super-peer" if payload["super_peer"] == self.me else "peer"
        self._apply_view(payload, role=role)
        self._restart_probe()
        return {"accepted": True}

    def _apply_view(self, payload: Dict, role: str) -> None:
        if payload.get("epoch", 0) < self.view.epoch:
            return  # stale assignment from an old election
        self.view = OverlayView(
            role=role,
            group_id=payload["group_id"],
            super_peer=payload["super_peer"],
            members=[_member_unwire(m) for m in payload["members"]],
            super_peers=list(payload["super_peers"]),
            coordinator=payload.get("coordinator", ""),
            epoch=payload.get("epoch", 0),
        )
        self._offers.clear()
        if self.on_view_applied is not None:
            self.on_view_applied(self.view)

    # -- failure detection -------------------------------------------------------------

    def _restart_probe(self) -> None:
        """A view landed: only a plain member probes, from a fresh wait.

        Reached from inside the detector's own tick on the takeover
        path; ``stop()`` then ends the loop once that tick returns.
        """
        self.detector.stop()
        if self.view.role == "peer" and self.view.super_peer:
            # assigned before the election, ``probe_interval`` still counts
            self.detector.interval = self.probe_interval
            self.detector.start()

    def _check_super_peer(self) -> Generator:
        alive = yield from self._probe(self.view.super_peer)
        if not alive:
            yield from self._report_super_peer_missing()

    def _probe(self, site: str) -> Generator:
        try:
            yield from self.rdm.rpc(site, "ping", None, timeout=self.probe_timeout)
            return True
        except (OfflineError, RpcTimeout):
            return False

    def _report_super_peer_missing(self) -> Generator:
        """Member path: tell the highest-ranked survivor to take over."""
        survivors = [
            m for m in self.view.members if m.site not in (self.view.super_peer,)
        ]
        if not survivors:
            return
        survivors.sort(key=lambda m: m.rank, reverse=True)
        highest = survivors[0]
        if highest.site == self.me:
            yield from self.takeover_check()
            return
        try:
            yield from self.rdm.rpc(
                highest.site, "sp_missing",
                {"reporter": self.me, "missing": self.view.super_peer,
                 "epoch": self.view.epoch},
            )
        except (OfflineError, RpcTimeout):
            # highest-ranked also gone; next probe round will retry with
            # whatever view update happened meanwhile
            pass

    def takeover_check(self) -> Generator:
        """Highest-ranked member path: verify, poll members, take over."""
        missing = self.view.super_peer
        if not missing or self.view.role != "peer" or self._takeover_busy:
            return False
        self._takeover_busy = True
        try:
            taken = yield from self._takeover_check_inner(missing)
            return taken
        finally:
            self._takeover_busy = False

    def _takeover_check_inner(self, missing: str) -> Generator:
        # (a) verify the super-peer really is missing
        alive = yield from self._probe(missing)
        if alive:
            return False
        # (b) verify own rank is highest among survivors
        survivors = [m for m in self.view.members if m.site != missing]
        my_rank = self.my_rank()
        if any(m.rank > my_rank for m in survivors if m.site != self.me):
            return False
        # (c) every other member re-verifies and acknowledges
        votes = 1  # my own
        polled = 1
        for member in survivors:
            if member.site == self.me:
                continue
            polled += 1
            try:
                answer = yield from self.rdm.rpc(
                    member.site, "sp_verify",
                    {"candidate": self.me, "missing": missing,
                     "epoch": self.view.epoch},
                    timeout=self.probe_timeout * 2,
                )
                if answer and answer.get("confirm"):
                    votes += 1
            except (OfflineError, RpcTimeout):
                continue
        if votes * 2 <= polled:  # needs a simple majority
            return False

        # Take over.
        self.reelections += 1
        self.takeover_log.append(
            {"at": self.sim.now, "missing": missing, "epoch": self.view.epoch + 1}
        )
        new_members = [m for m in self.view.members if m.site != missing]
        new_sps = [s for s in self.view.super_peers if s != missing] + [self.me]
        payload = {
            "group_id": self.view.group_id,
            "super_peer": self.me,
            "members": [_member_wire(m) for m in new_members],
            "super_peers": sorted(set(new_sps)),
            "coordinator": self.view.coordinator,
            "epoch": self.view.epoch + 1,
        }
        self._apply_view(payload, role="super-peer")
        self._restart_probe()
        for member in new_members:
            if member.site == self.me:
                continue
            self.sim.process(
                self._assign_member(member.site, payload),
                name=f"takeover-assign:{self.me}->{member.site}",
            )
        # Tell the other super-peers about the change.
        for sp in payload["super_peers"]:
            if sp == self.me:
                continue
            self.sim.process(
                self._notify_sp_update(sp, payload), name=f"sp-update:{self.me}->{sp}"
            )
        return True

    def _notify_sp_update(self, sp: str, payload: Dict) -> Generator:
        try:
            yield from self.rdm.rpc(
                sp, "sp_update",
                {"group_id": payload["group_id"], "new_super_peer": self.me,
                 "old_super_peer": "", "super_peers": payload["super_peers"],
                 "epoch": payload["epoch"]},
            )
        except (OfflineError, RpcTimeout):
            pass

    def op_sp_missing(self, message: Message) -> Generator:
        """RPC body on the highest-ranked member."""
        yield from self.rdm.compute(0.001)
        if message.payload.get("epoch", 0) != self.view.epoch:
            return {"scheduled": False}
        self.sim.process(self.takeover_check(), name=f"takeover:{self.me}")
        return {"scheduled": True}

    def op_sp_verify(self, message: Message) -> Generator:
        """RPC body on an ordinary member: re-verify the failure."""
        yield from self.rdm.compute(0.001)
        alive = yield from self._probe(message.payload["missing"])
        return {"confirm": not alive, "site": self.me}

    def op_sp_update(self, message: Message) -> Generator:
        """Another group's super-peer changed; update my SP list."""
        yield from self.rdm.compute(0.001)
        self.view.super_peers = sorted(set(message.payload["super_peers"]))
        return {"ok": True}

    def other_super_peers(self) -> List[str]:
        return [s for s in self.view.super_peers if s != self.me]


def _member_wire(m: MemberInfo) -> Dict:
    return {"site": m.site, "rank": m.rank, "attributes": dict(m.attributes)}


def _member_unwire(w: Dict) -> MemberInfo:
    return MemberInfo(site=w["site"], rank=w["rank"], attributes=dict(w.get("attributes", {})))
