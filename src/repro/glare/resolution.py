"""The scaled resolution plane: its switch, its digest, its directory.

GLARE's baseline resolution walk (local → group peers → super-peer →
every other super-peer) floods the VO on a cache miss: message cost
grows linearly with the number of groups, every cached entry is
revalidated with its own RPC, and concurrent identical lookups each
run the full walk.  Deployment frameworks that scale past tens of
sites summarize and batch control traffic instead of flooding it; this
module holds that plane:

* :class:`ResolutionConfig` — the plane's one switch, ``scaled``
  (``paper`` by default, so every paper figure stays byte-identical);
* :class:`TypeDigest` — a super-peer's compact type→location summary
  (which member sites of its own group, and which *other* super-peers'
  groups, claim each activity type), epoch-stamped against
  ``OverlayView.epoch`` so a re-election invalidates everything, with
  a TTL-bound negative cache inside it so repeatedly-missing types
  stop re-flooding the VO;
* :class:`DirectoryPlane` — the object an RDM frontend constructs iff
  the plane is on: the digest, the shard-routing ring over the
  overlay's super-peers, the claim notes that feed both, and the
  ``digest_note`` / ``shard_note`` / ``shard_lookup`` operations.

Digest semantics are deliberately asymmetric to preserve result sets:

* **Cross-group targeting is loss-free.**  A digest entry only ever
  *narrows* the super-peer fan-out; no entry (or a targeted query that
  comes back empty) falls back to the full broadcast.
* **Own-group absence is trusted only after a full sync.**  Members
  push their claim lists to their super-peer when a view lands and
  piggyback increments on each local registration; the super-peer
  skips (or narrows) the member fan-out only once every current member
  has delivered its epoch-stamped bulk note.
* **Negative entries are explicitly staleness-bounded** by their TTL —
  that is their contract, documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, ClassVar, Dict, Generator, Iterable, List, Optional, Set,
)

from repro.glare.errors import GlareError
from repro.glare.registry import merge_lookups
from repro.glare.storage import HashRing
from repro.net.message import Message
from repro.net.network import RpcTimeout
from repro.simkernel.errors import OfflineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService
    from repro.glare.superpeer import OverlayView

#: seconds a super-peer remembers that a full broadcast found no
#: deployments for a type (the scaled plane's negative cache)
NEGATIVE_TTL = 120.0


@dataclass(frozen=True)
class ResolutionConfig:
    """The resolution plane's switch: the paper's walk, or the scaled one.

    ``scaled`` turns on, together: singleflight coalescing of
    concurrent identical resolutions on one site; one ``get_lut_batch``
    per (source site, service) in the Cache Refresher instead of one
    ``get_lut`` per cached entry; super-peer :class:`TypeDigest`
    targeting with its :data:`NEGATIVE_TTL` negative cache (the
    :class:`DirectoryPlane`); and a deterministic per-(site, monitor)
    phase offset so hundreds of monitor loops don't tick in lockstep.
    Both paths of every mechanism stay: paper vs scaled is the A/B
    Fig. 14 measures.
    """

    scaled: bool = False

    #: the paper's walk — the one default every constructor shares
    PAPER: ClassVar["ResolutionConfig"]

    @classmethod
    def all_on(cls) -> "ResolutionConfig":
        """The scaled plane (the fig14 'optimized' series)."""
        return cls(scaled=True)


ResolutionConfig.PAPER = ResolutionConfig()


class TypeDigest:
    """A super-peer's epoch-stamped summary of where types live.

    Entries record the epoch they were learned under; reads ignore
    entries from any other epoch, and :meth:`reset` (called when a new
    overlay view lands) drops everything wholesale.  Both guards exist
    so a digest surviving a missed reset still cannot serve stale
    claims after a re-election.
    """

    def __init__(self) -> None:
        self.epoch = 0
        #: type name -> {other super-peer site: epoch learned}
        self._groups: Dict[str, Dict[str, int]] = {}
        #: member site -> (epoch, claimed type names)
        self._member_claims: Dict[str, tuple] = {}
        #: members whose *bulk* note for the current epoch has arrived
        self._synced: Set[str] = set()
        #: type name -> (expires_at, epoch)
        self._negative: Dict[str, tuple] = {}
        # wall-clock-free effectiveness counters (for tests / fig14)
        self.group_hits = 0
        self.member_skips = 0
        self.negative_hits = 0
        self.resets = 0

    # -- lifecycle ---------------------------------------------------------

    def reset(self, epoch: int) -> None:
        """A new overlay view landed: drop every claim of older epochs."""
        if epoch == self.epoch:
            return
        self.epoch = epoch
        self._groups.clear()
        self._member_claims.clear()
        self._synced.clear()
        self._negative.clear()
        self.resets += 1

    # -- cross-group claims -------------------------------------------------

    def learn_group(self, type_name: str, sp_site: str) -> None:
        """A fan-out result showed ``sp_site``'s group has the type."""
        self._groups.setdefault(type_name, {})[sp_site] = self.epoch
        self.clear_missing(type_name)

    def forget_group(self, type_name: str, sp_site: str) -> None:
        """A targeted query to ``sp_site`` came back empty: claim stale."""
        claims = self._groups.get(type_name)
        if claims is not None:
            claims.pop(sp_site, None)
            if not claims:
                del self._groups[type_name]

    def groups_for(self, type_name: str) -> Optional[List[str]]:
        """Super-peers whose group claims the type (current epoch only).

        ``None`` means the digest has no information — callers must
        fall back to the full broadcast.
        """
        claims = self._groups.get(type_name)
        if not claims:
            return None
        fresh = sorted(sp for sp, epoch in claims.items() if epoch == self.epoch)
        return fresh or None

    # -- own-group claims ---------------------------------------------------

    def learn_member(self, site: str, claims: Iterable[str], epoch: int,
                     full: bool) -> None:
        """Record a member's claim note (ignored unless current epoch)."""
        if epoch != self.epoch:
            return
        claimed = set(claims)
        if full:
            self._member_claims[site] = (epoch, claimed)
            self._synced.add(site)
        else:
            previous_epoch, previous = self._member_claims.get(site, (epoch, set()))
            if previous_epoch != epoch:
                previous = set()
            self._member_claims[site] = (epoch, previous | claimed)
        for name in claimed:
            self.clear_missing(name)

    def members_for(self, type_name: str,
                    member_sites: Iterable[str]) -> Optional[List[str]]:
        """Members claiming the type, or ``None`` without a full sync.

        Once fully synced the answer is authoritative for the current
        epoch: an empty list means *no member claims it* and the fan-out
        may be skipped entirely.
        """
        members = list(member_sites)
        if not all(site in self._synced for site in members):
            return None  # some member's bulk note is still missing
        claimed = []
        for site in members:
            epoch, names = self._member_claims.get(site, (self.epoch, set()))
            if epoch == self.epoch and type_name in names:
                claimed.append(site)
        return claimed

    # -- negative cache -----------------------------------------------------

    def note_missing(self, type_name: str, now: float, ttl: float) -> None:
        """A full broadcast found nothing: suppress re-floods for ``ttl``."""
        self._negative[type_name] = (now + ttl, self.epoch)

    def is_missing(self, type_name: str, now: float) -> bool:
        entry = self._negative.get(type_name)
        if entry is None:
            return False
        expires_at, epoch = entry
        if epoch != self.epoch or now >= expires_at:
            del self._negative[type_name]
            return False
        return True

    def clear_missing(self, type_name: str) -> None:
        self._negative.pop(type_name, None)


class DirectoryPlane:
    """The scaled cross-group directory of one RDM frontend.

    Constructed iff ``resolution.scaled`` or ``storage.routing``: a
    :class:`TypeDigest` (populated only while this site holds the
    super-peer role), plus — with routing — a consistent-hash ring over
    the current view's super-peers that makes the digest this site's
    slice of a VO-wide *shard directory*.  The plane installs the
    overlay's view hook and the registries' registration hook, and its
    ``op_*`` are attached to the frontend.  The super-peer lookup calls
    in twice: :meth:`narrow` before the member fan-out and
    :meth:`escalate` for the cross-group step.
    """

    #: retry cadence/budget for refused or failed shard notes: covers
    #: the overlay-formation window where a targeted owner has not
    #: applied its view yet (or resets its digest just after the note
    #: lands) without ever retrying forever into a dead node
    SHARD_NOTE_RETRY_DELAY = 2.0
    SHARD_NOTE_RETRY_LIMIT = 5

    def __init__(self, rdm: "GlareRDMService") -> None:
        self.rdm = rdm
        self.routing = rdm.storage.routing
        #: routing alone reuses the digest as its directory slice but
        #: leaves the (knowingly stale) negative cache to ``scaled``
        self.negative_cache = rdm.resolution.scaled
        self.digest = TypeDigest()
        #: the shard-routing table (``None`` until a view lands, or
        #: when routing is off)
        self.ring: Optional[HashRing] = None
        #: views applied: equal views share a ring, so retries count
        self._views_applied = 0
        #: type names already announced to their ring owners this view
        self._forwarded_claims: set = set()
        self.shard_route_hits = 0
        self.shard_fallbacks = 0
        self.shard_handoffs = 0
        rdm.overlay.on_view_applied = self._on_view_applied
        rdm.atr.on_local_registration = self._note_local_claims
        rdm.adr.on_local_registration = self._note_local_claims

    @property
    def sim(self):
        return self.rdm.sim

    # -- the two calls from the super-peer lookup ---------------------------

    def narrow(self, type_name: str, members: List[str]) -> List[str]:
        """The members whose claim notes cover the type — all of them
        until every member has delivered its bulk note for this epoch."""
        claimed = self.digest.members_for(type_name, members)
        if claimed is None:
            return members
        self.digest.member_skips += len(members) - len(claimed)
        return claimed

    def escalate(self, type_name: str, result: Dict) -> Generator:
        """Cross-group step: negative cache, then the type's directory
        owner (routing), then the groups the digest says claim it, and
        only then the paper's broadcast — which every earlier stage
        falls through to on an empty answer, so the plane changes
        message cost, never the result set.  A broadcast that finds
        nothing parks the type in the negative cache.
        """
        digest = self.digest
        manager = self.rdm.request_manager
        me = self.rdm.node_name
        if self.negative_cache and digest.is_missing(type_name, self.sim.now):
            digest.negative_hits += 1
            self.rdm.obs.metrics.counter(
                "glare.negative_cache_hits", site=me
            ).inc()
            return result
        others = self.rdm.overlay.other_super_peers()
        # Shard routing: one RPC to the type's directory owner
        # replaces the all-super-peers broadcast.  An owner whose
        # answer is empty (handoff window, stale directory, owner
        # down) falls through to the broadcast below.
        ring = self.ring
        if ring is not None and len(ring) > 1 and others:
            owner = ring.route(type_name)
            if owner != me and owner in set(others):
                value = yield from manager.safe_rpc(
                    owner, "shard_lookup", {"type": type_name}, timeout=30.0,
                )
                if value and value.get("deployments"):
                    self.shard_route_hits += 1
                    merged = merge_lookups([result, value])
                    manager.cache_results(merged)
                    return merged
                self.shard_fallbacks += 1
                if value:
                    result = merge_lookups([result, value])
        targeted = digest.groups_for(type_name)
        if targeted is not None:
            candidates = [s for s in targeted if s in set(others)]
            if candidates:
                digest.group_hits += 1
                labeled = yield from manager.fanout_labeled(
                    candidates, "sp_lookup",
                    {"type": type_name, "forwarded": True},
                )
                merged = merge_lookups([result] + self._learn(type_name, labeled))
                if merged["deployments"]:
                    manager.cache_results(merged)
                    return merged
                # every claimed group came back empty: the digest was
                # stale — fall through to the full broadcast
                others = [s for s in others if s not in set(candidates)]
                result = merged
        if others:
            merged, labeled = yield from manager.broadcast(
                type_name, result, others)
            for sp_site, value in labeled:
                if value and value.get("deployments"):
                    digest.learn_group(type_name, sp_site)
            if self.negative_cache and not merged["deployments"]:
                digest.note_missing(type_name, self.sim.now, NEGATIVE_TTL)
            return merged
        return result

    def _learn(self, type_name: str, labeled: List[tuple]) -> List[Dict]:
        """Fold a targeted fan-out's answers into the digest: a group
        that answered with deployments is (re)learned, one that came
        back empty forgotten.  Returns the non-empty answers."""
        hits = []
        for sp_site, value in labeled:
            if value and value.get("deployments"):
                self.digest.learn_group(type_name, sp_site)
                hits.append(value)
            else:
                self.digest.forget_group(type_name, sp_site)
        return hits

    def shard_lookup(self, type_name: str) -> Generator:
        """Directory-owner body of a routed cross-group lookup.

        This site owns ``type_name``'s slice of the shard directory:
        its digest holds the set of super-peer groups claiming the
        type (fed by ``shard_note`` hand-offs).  Answer from the own
        group first, then fan out only to the claiming groups — the
        caller handles the empty-answer fallback.
        """
        manager = self.rdm.request_manager
        result = yield from manager.super_peer_lookup(type_name, forwarded=True)
        if result["deployments"]:
            return result
        others = set(self.rdm.overlay.other_super_peers())
        candidates = [
            s for s in self.digest.groups_for(type_name) or () if s in others
        ]
        if not candidates:
            return result
        labeled = yield from manager.fanout_labeled(
            candidates, "sp_lookup", {"type": type_name, "forwarded": True},
        )
        self._learn(type_name, labeled)
        merged = merge_lookups([result] + [value for _, value in labeled])
        if merged["deployments"]:
            manager.cache_results(merged)
        return merged

    # -- digest and directory maintenance -----------------------------------

    def _on_view_applied(self, view: "OverlayView") -> None:
        """A new overlay view landed (election or takeover).

        Super-peer: the digest resets to the new epoch — every claim
        learned under the old grouping is invalid.  Member: push a full
        (bulk) claim note so the super-peer can rebuild absence trust.
        With shard routing on, the ring is the one over the new view's
        super-peers and this site's slice of the directory is handed
        off: claims are re-announced to their (possibly new) owners.
        """
        me = self.rdm.node_name
        self._views_applied += 1
        if view.role == "super-peer":
            self.digest.reset(view.epoch)
        if self.routing:
            sps = sorted(view.super_peers)
            self.ring = HashRing(sps) if sps else None
            self._forwarded_claims.clear()
            if view.role == "super-peer":
                self.sim.process(
                    self._send_shard_notes(
                        self.rdm.request_manager.local_claims()),
                    name=f"shard-handoff:{me}",
                )
        if view.role == "peer" and view.super_peer and view.super_peer != me:
            self.sim.process(
                self._send_digest_note(full=True), name=f"digest-note:{me}",
            )

    def _note_local_claims(self, type_name: str) -> None:
        """Registration hook: piggyback new claims onto the digest.

        Called synchronously by the colocated registries whenever a
        type or deployment is registered authoritatively on this site.
        """
        me = self.rdm.node_name
        hierarchy = self.rdm.atr.hierarchy
        claims = [type_name]
        if hierarchy.get(type_name) is not None:
            claims.extend(hierarchy.ancestors(type_name))
        if self.rdm.overlay.is_super_peer:
            # a super-peer consults its own registries before any
            # fan-out, so only the negative cache needs clearing —
            # plus, with routing on, announcing the new claims to
            # their ring owners
            for name in claims:
                self.digest.clear_missing(name)
            if self.routing:
                self.sim.process(
                    self._send_shard_notes(claims), name=f"shard-note:{me}",
                )
            return
        view = self.rdm.overlay.view
        if view.role == "peer" and view.super_peer:
            self.sim.process(
                self._send_digest_note(full=False, claims=claims),
                name=f"digest-note:{me}",
            )

    def _send_shard_notes(self, claims: List[str],
                          attempt: int = 0) -> Generator:
        """Detached process: announce claims to their ring-owner SPs.

        Only *acknowledged* claims count as forwarded: group views land
        at different times, so a note can reach an owner before that
        owner is a routing-enabled super-peer (it refuses) or just
        before its own view-apply wipes the digest (it acknowledges a
        claim that no longer exists).  Refused and failed claims are
        retried on a fixed cadence with a bounded budget; a claim still
        undelivered after the budget only costs directory coverage —
        lookups fall back to the loss-free broadcast, so results never
        shrink.  The forwarded set clears on every view change, which
        also restarts the announcement from scratch against the new
        ring.
        """
        me = self.rdm.node_name
        ring = self.ring
        if ring is None or len(ring) < 2 or not self.rdm.overlay.is_super_peer:
            return
        by_owner: Dict[str, List[str]] = {}
        for name in claims:
            if name in self._forwarded_claims:
                continue
            owner = ring.route(name)
            if owner == me:
                self._forwarded_claims.add(name)
                continue  # my own digest is the slice for this name
            by_owner.setdefault(owner, []).append(name)
        pending: List[str] = []
        for owner in sorted(by_owner):
            names = by_owner[owner]
            self.shard_handoffs += len(names)
            try:
                result = yield from self.rdm.rpc(
                    owner, "shard_note", {"site": me, "claims": names},
                    timeout=10.0,
                )
            except (OfflineError, RpcTimeout, GlareError):
                result = None
            if result and result.get("accepted"):
                self._forwarded_claims.update(names)
            else:
                pending.extend(names)
        if pending and attempt < self.SHARD_NOTE_RETRY_LIMIT:
            view_before = self._views_applied

            def retry() -> Generator:
                yield self.sim.timeout(self.SHARD_NOTE_RETRY_DELAY)
                # a view change already re-announces against its own
                # ring; only retry while ours is still current
                if self._views_applied == view_before:
                    yield from self._send_shard_notes(
                        pending, attempt=attempt + 1)

            self.sim.process(retry(), name=f"shard-note-retry:{me}")

    def _send_digest_note(self, full: bool,
                          claims: Optional[List[str]] = None) -> Generator:
        """Detached process: deliver a claim note to my super-peer."""
        view = self.rdm.overlay.view
        target = view.super_peer
        if not target or target == self.rdm.node_name:
            return
        payload = {
            "site": self.rdm.node_name,
            "claims": claims if claims is not None
            else self.rdm.request_manager.local_claims(),
            "epoch": view.epoch,
            "full": full,
        }
        try:
            yield from self.rdm.rpc(target, "digest_note", payload, timeout=10.0)
        except (OfflineError, RpcTimeout, GlareError):
            pass  # best-effort: a lost note only costs digest coverage

    # -- operations (attached to the hosting RDM service) -------------------

    def op_digest_note(self, message: Message) -> Generator:
        """A group member's claim note for this super-peer's digest."""
        payload = message.payload
        yield from self.rdm.compute(0.0005)
        if not self.rdm.overlay.is_super_peer:
            return {"accepted": False}
        self.digest.learn_member(
            payload["site"],
            payload.get("claims", []),
            payload.get("epoch", -1),
            payload.get("full", False),
        )
        if self.routing:
            # the member's claims are now part of this group's content:
            # hand them to their ring owners (deduplicated per view)
            self.sim.process(
                self._send_shard_notes(list(payload.get("claims", []))),
                name=f"shard-note:{self.rdm.node_name}",
            )
        return {"accepted": True}

    def op_shard_note(self, message: Message) -> Generator:
        """Another super-peer's claims for the directory slice I own.

        Payload: ``{'site': origin super-peer, 'claims': [...]}``.
        Refused (so the sender retries) until this site is a
        routing-enabled super-peer with an applied view — group views
        land at different times, and view epochs are per-group
        counters, so the sender's epoch is meaningless here.  A stale
        claim (sender demoted, claim gone) is self-pruning: the next
        routed lookup that finds the claiming group empty forgets it.
        """
        payload = message.payload
        yield from self.rdm.compute(
            0.0005 + 0.0001 * len(payload.get("claims", [])))
        if (not self.rdm.overlay.is_super_peer or not self.routing
                or self.rdm.overlay.view.epoch < 1):
            return {"accepted": False}
        for name in payload.get("claims", []):
            self.digest.learn_group(name, payload["site"])
            self.digest.clear_missing(name)
        return {"accepted": True}

    def op_shard_lookup(self, message: Message) -> Generator:
        """Directory-owner query: answer from the groups that claim it."""
        yield from self.rdm.compute(self.rdm.atr.lookup_demand)
        result = yield from self.shard_lookup(message.payload["type"])
        return result
