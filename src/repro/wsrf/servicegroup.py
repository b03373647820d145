"""WSRF service groups: periodically refreshed resource aggregation.

"Both registry services provide an aggregation of all locally
registered and cached resources, based on a WSRF service-group
framework, in which aggregated resources are periodically refreshed"
(paper §3.1).  The same framework underlies the GT4 Index Service,
which is why the paper considers the ATR-vs-index comparison fair.

A :class:`ServiceGroup` holds :class:`ServiceGroupEntry` items — an EPR
plus a snapshot of the member's property document.  A refresh process
re-pulls content from registered *content providers* (callables, so the
group works both for purely local aggregation and for remote pulls
implemented by the owner service).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.simkernel.primitives import Periodic
from repro.wsrf.resource import EndpointReference
from repro.wsrf.xmldoc import Element
from repro.wsrf.xpath import Forest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel import Simulator

#: returns the member's current property document, or None when gone
ContentProvider = Callable[[], Optional[Element]]


class ServiceGroupEntry:
    """One aggregated member: EPR + content snapshot."""

    def __init__(
        self,
        epr: EndpointReference,
        content: Element,
        provider: Optional[ContentProvider] = None,
    ) -> None:
        self.epr = epr
        self.content = content
        self.provider = provider
        self.refreshed_at = 0.0
        self.stale_misses = 0

    def refresh(self, now: float) -> bool:
        """Re-pull content; returns False when the member disappeared."""
        if self.provider is None:
            self.refreshed_at = now
            return True
        fresh = self.provider()
        if fresh is None:
            self.stale_misses += 1
            return False
        self.content = fresh
        self.refreshed_at = now
        return True


class ServiceGroup:
    """An aggregation of member resources with periodic refresh."""

    def __init__(
        self,
        sim: "Simulator",
        name: str = "service-group",
        refresh_interval: float = 30.0,
        max_stale_misses: int = 2,
    ) -> None:
        self.sim = sim
        self.name = name
        self.max_stale_misses = max_stale_misses
        self._entries: Dict[str, ServiceGroupEntry] = {}
        #: memoized :meth:`documents` snapshot (and its query index);
        #: dropped whenever membership or any entry's content can change
        self._snapshot: Optional[Forest] = None
        self.refreshes = 0
        self.refresher = Periodic(sim, refresh_interval, self.refresh_all, f"sg:{name}")

    def __len__(self) -> int:
        return len(self._entries)

    def entry_key(self, epr: EndpointReference) -> str:
        """Stable identity of an entry (address+service+key)."""
        return f"{epr.address}/{epr.service}#{epr.key}"

    def add(
        self,
        epr: EndpointReference,
        content: Element,
        provider: Optional[ContentProvider] = None,
    ) -> ServiceGroupEntry:
        """Register (or replace) an aggregated member."""
        entry = ServiceGroupEntry(epr, content, provider)
        entry.refreshed_at = self.sim.now
        self._entries[self.entry_key(epr)] = entry
        self._snapshot = None
        return entry

    def remove(self, epr: EndpointReference) -> bool:
        """Drop an aggregated member; True when it existed."""
        removed = self._entries.pop(self.entry_key(epr), None) is not None
        if removed:
            self._snapshot = None
        return removed

    def entries(self) -> List[ServiceGroupEntry]:
        """All current entries."""
        return list(self._entries.values())

    def documents(self) -> Forest:
        """Content snapshots of all entries (the XPath query surface).

        One :class:`Forest` is shared by every query between two
        membership/refresh changes, so the index it builds on first
        use is paid once per change, not per query.  Callers must not
        mutate the list or the documents in it: a member republishes
        by handing over a rebuilt document (:meth:`add`, :meth:`refresh`).
        """
        docs = self._snapshot
        if docs is None:
            docs = self._snapshot = Forest(e.content for e in self._entries.values())
        return docs

    def find_by_key(self, key: str) -> Optional[ServiceGroupEntry]:
        """First entry whose EPR resource key equals ``key``."""
        for entry in self._entries.values():
            if entry.epr.key == key:
                return entry
        return None

    def refresh(self, epr: EndpointReference) -> bool:
        """Re-pull one member's content now; True when it was replaced.

        For a member that republished between two periodic rounds: no
        other entry's provider is called and ``refreshes`` (which counts
        rounds) does not move.  An unlisted member, or one whose
        provider reports it gone, changes nothing — delisting the gone
        is the periodic round's job.
        """
        entry = self._entries.get(self.entry_key(epr))
        if entry is None or not entry.refresh(self.sim.now):
            return False
        self._snapshot = None
        return True

    def refresh_all(self) -> int:
        """Refresh every entry, dropping repeatedly-stale ones."""
        now = self.sim.now
        dropped = []
        for key, entry in list(self._entries.items()):
            ok = entry.refresh(now)
            if not ok and entry.stale_misses >= self.max_stale_misses:
                dropped.append(key)
        for key in dropped:
            del self._entries[key]
        self.refreshes += 1
        self._snapshot = None  # content snapshots may have changed
        return len(dropped)

    def start(self) -> None:
        """Launch the periodic refresh process."""
        self.refresher.start()

    def stop(self) -> None:
        self.refresher.stop()

    @property
    def running(self) -> bool:
        return self.refresher.running
