"""The world audit: one clause table, checked after every experiment unit.

:func:`audit` reads (never runs or drains) one world, a VO's
:class:`~repro.net.network.Network` or a bare one, and returns one
:class:`Violation` per broken clause.  Each plane's ``invariants()``, a
node's or a world-level one (``Network.planes``: a load driver), states
the clauses of its own state next to the code that keeps it; the
overlay clauses over every RDM service, the traffic ledger, the stopped
loops of crashed nodes, leaked spans and, after ``network.stop()``, the
shutdown clauses are below.  Every ``Network`` enlists itself in the
open :func:`audit_scope` (``repro.runner`` opens one per work unit).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network

Clauses = Iterator[Tuple[str, str]]


class Violation(NamedTuple):
    """One broken clause: where (``plane``), which, and what was seen."""

    plane: str
    clause: str
    detail: str


def audit(network: "Network") -> List[Violation]:
    """Every broken clause of ``network`` (empty list = consistent)."""
    found = [Violation(f"{plane.name}@{name}", clause, detail)
             for name, node in network.nodes.items() for plane in node.planes
             for clause, detail in plane.invariants()]
    found += [Violation(plane.name, clause, detail)
              for plane in network.planes for clause, detail in plane.invariants()]
    found += [Violation("overlay", *broken) for broken in _overlay(network)]
    found += [Violation("network", *broken) for broken in _traffic(network)]
    found += [Violation("faults", *broken) for broken in _offline(network)]
    found += [Violation("vo", *broken) for broken in _spans(network)]
    if network.stopped:
        found += [Violation("vo", *broken) for broken in _shutdown(network)]
    return found


def _overlay(network: "Network") -> Clauses:
    from repro.glare.rdm import RDM_SERVICE  # deferred: repro.net imports us

    epochs: Dict[str, set] = {}
    claims: Dict[Tuple[str, int], str] = {}
    for name, node in network.nodes.items():
        rdm = node.services.get(RDM_SERVICE)
        view = None if rdm is None else rdm.overlay.view
        if view is None or not node.online or not view.super_peer:
            continue  # no RDM, offline, or never assigned (joined after the election)
        members, super_peer = view.member_sites(), view.super_peer
        if view.role == "super-peer" and super_peer != name:
            yield "super-peer-self", f"{name}: super-peer role, view names {super_peer}"
        if name not in members:
            yield "member-of-own-group", f"{name}: not a member of its own group"
        if super_peer not in members:
            yield "super-peer-member", f"{name}: super-peer {super_peer} not a member"
        epochs.setdefault(super_peer, set()).add(view.epoch)
        if view.role != "super-peer":
            continue
        for member in members:
            holder = claims.setdefault((member, view.epoch), name)
            if holder != name:
                yield "one-claim-per-epoch", f"{member}: {holder} and {name}, epoch {view.epoch}"
    for super_peer, seen in epochs.items():
        if len(seen) > 1:
            yield "one-epoch-per-group", f"group of {super_peer}: epochs {sorted(seen)}"


def _traffic(network: "Network") -> Clauses:
    """Every leg on the wire was sent by one node; a leg to an offline
    node is sent but never received, so inbound may only fall short."""
    nodes = network.nodes.values()
    wire = (network.total_bytes, network.total_messages)
    sent = (sum(n.bytes_out for n in nodes), sum(n.messages_out for n in nodes))
    received = (sum(n.bytes_in for n in nodes), sum(n.messages_in for n in nodes))
    if sent != wire:
        yield "traffic-conserved", f"sent {sent} != wire {wire} (bytes, messages)"
    elif received[0] > wire[0] or received[1] > wire[1]:
        yield "traffic-conserved", f"received {received} > wire {wire} (bytes, messages)"


def _offline(network: "Network") -> Clauses:
    """A crashed node runs nothing: no loop of its planes is running."""
    for name, node in network.nodes.items():
        if node.online:
            continue
        for plane in node.planes:
            for loop in plane.loops():
                if loop.running:
                    yield "offline-loops-stopped", f"{name}: {loop.name} runs while offline"


def _spans(network: "Network") -> Clauses:
    """A span whose owning process is dead can never close: a leak at any pause."""
    for span in network.obs.tracer.leaked_spans():
        yield "spans-closed", f"leaked span {span.name}"


def _shutdown(network: "Network") -> Clauses:
    pending = network.sim.peek()
    if pending != float("inf"):
        yield "agenda-empty", f"next event at t={pending}"
    for name, node in network.nodes.items():
        if node.cpu.run_queue_length:
            yield "cpu-released", f"{name}: {node.cpu.run_queue_length} CPU grants"
        if node.inflight_rpcs:
            yield "no-rpc-in-flight", f"{name}: {node.inflight_rpcs} RPCs in flight"
    for (a, b), count in network._link_active.items():
        yield "links-released", f"link {a}-{b}: {count} transfers still claim it"
    for loop in network.background():
        if loop.running:
            yield "loops-stopped", f"{loop.name}: background loop still running"


#: the networks built inside the innermost open :func:`audit_scope`
_scope: Optional[List["Network"]] = None


def enlist(network: "Network") -> None:
    """``Network.__init__``'s hook: hand ``network`` to the open scope, if any."""
    if _scope is not None:
        _scope.append(network)


@contextmanager
def audit_scope() -> Iterator[List["Network"]]:
    """Collect every ``Network`` built inside the ``with``."""
    global _scope
    outer, _scope = _scope, []
    try:
        yield _scope
    finally:
        _scope = outer
