"""Scaling knobs and state for the two-level resolution path.

GLARE's baseline resolution walk (local → group peers → super-peer →
every other super-peer) floods the VO on a cache miss: message cost
grows linearly with the number of groups, every cached entry is
revalidated with its own RPC, and concurrent identical lookups each
run the full walk.  Deployment frameworks that scale past tens of
sites summarize and batch control traffic instead of flooding it; this
module holds the opt-in machinery for that:

* :class:`ResolutionConfig` — feature switches, all **off** by default
  so every existing experiment stays byte-identical;
* :class:`TypeDigest` — a super-peer's compact type→location summary
  (which member sites of its own group, and which *other* super-peers'
  groups, claim each activity type), epoch-stamped against
  ``OverlayView.epoch`` so a re-election invalidates everything;
* negative caching with TTL inside the digest, so repeatedly-missing
  types stop re-flooding the VO.

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
from typing import Dict, Iterable, List, Optional, Set


@dataclass
class ResolutionConfig:
    """Feature switches for the scaled resolution path (default: all off).

    singleflight:
        Concurrent in-flight resolutions of the same type (with the
        same exclusions) on the same site join one walk and share its
        result instead of multiplying identical fan-outs.
    batch_revalidation:
        The Cache Refresher revalidates cached entries with one
        ``get_lut_batch`` RPC per (source site, service) instead of one
        ``get_lut`` per entry: O(distinct sources) messages per tick
        rather than O(cached entries).
    digests:
        Super-peers maintain :class:`TypeDigest` summaries and use them
        to target (rather than broadcast) cross-group escalation and
        member fan-out.
    negative_ttl:
        Seconds a super-peer remembers that a full broadcast found no
        deployments for a type (0 disables negative caching).  Requires
        ``digests``.
    monitor_jitter:
        De-synchronize monitor loops with a deterministic per-site
        phase offset drawn from the seeded kernel RNG, so hundreds of
        refresher/lifecycle ticks don't fire in lockstep.
    """

    singleflight: bool = False
    batch_revalidation: bool = False
    digests: bool = False
    negative_ttl: float = 0.0
    monitor_jitter: bool = False

    @classmethod
    def all_on(cls, negative_ttl: float = 120.0) -> "ResolutionConfig":
        """Every optimization enabled (the fig14 'optimized' series)."""
        return cls(
            singleflight=True,
            batch_revalidation=True,
            digests=True,
            negative_ttl=negative_ttl,
            monitor_jitter=True,
        )


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

    def fully_synced(self, member_sites: Iterable[str]) -> bool:
        """Whether every current member delivered its bulk note."""
        return all(site in self._synced for site in member_sites)

    def members_for(self, type_name: str,
                    member_sites: Iterable[str]) -> Optional[List[str]]:
        """Members claiming the type, or ``None`` without a full sync.

        Once fully synced the answer is authoritative for the current
        epoch: an empty list means *no member claims it* and the fan-out
        may be skipped entirely.
        """
        members = list(member_sites)
        if not self.fully_synced(members):
            return None
        claimed = []
        for site in members:
            epoch, names = self._member_claims.get(site, (self.epoch, set()))
            if epoch == self.epoch and type_name in names:
                claimed.append(site)
        return claimed

    # -- negative cache -----------------------------------------------------

    def note_missing(self, type_name: str, now: float, ttl: float) -> None:
        """A full broadcast found nothing: suppress re-floods for ``ttl``."""
        if ttl > 0:
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

    # -- introspection ------------------------------------------------------

    def known_types(self) -> List[str]:
        """Every type with a live cross-group or member claim."""
        names = set(self._groups)
        for epoch, claims in self._member_claims.values():
            if epoch == self.epoch:
                names.update(claims)
        return sorted(names)

    def __len__(self) -> int:
        return len(self.known_types())
