"""Scheduled resource termination (WS-ResourceLifetime).

"As both activity types and deployments are represented in the form of
WS-Resources, they can be expired, refreshed or removed permanently"
(paper §3.3).  The :class:`LifetimeManager` runs a periodic sweep over
one or more resource homes, destroys expired resources, and invokes
registered expiry listeners — the GLARE registries hook these to
cascade type expiry onto deployments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.simkernel.primitives import Periodic
from repro.wsrf.resource import ResourceHome, WSResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel import Simulator

ExpiryListener = Callable[[WSResource], None]


class LifetimeManager(Periodic):
    """Periodic expiry sweeper over a set of resource homes."""

    def __init__(self, sim: "Simulator", interval: float = 5.0) -> None:
        super().__init__(sim, interval, self.sweep_now, "wsrf-lifetime")
        self._homes: List[Tuple[ResourceHome, List[ExpiryListener]]] = []
        self.expired_total = 0

    def watch(self, home: ResourceHome, listener: Optional[ExpiryListener] = None) -> None:
        """Add ``home`` to the sweep; optionally attach an expiry listener."""
        for existing, listeners in self._homes:
            if existing is home:
                if listener is not None:
                    listeners.append(listener)
                return
        self._homes.append((home, [listener] if listener else []))

    def sweep_now(self) -> List[WSResource]:
        """Immediate synchronous sweep (used by tests and shutdown paths)."""
        expired_all: List[WSResource] = []
        for home, listeners in self._homes:
            expired = home.sweep_expired(self.sim.now)
            expired_all.extend(expired)
            for resource in expired:
                for listener in listeners:
                    listener(resource)
        self.expired_total += len(expired_all)
        return expired_all
