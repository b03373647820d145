"""The VO audit: one clause table, checked after every experiment unit.

:func:`audit` reads (never runs or drains) a VO and returns one
:class:`Violation` per broken clause.  Each site plane's
``invariants()`` states the clauses of its own state next to the code
that keeps it; the cross-site overlay clauses, the network's traffic
ledger and, once ``vo.stop()`` was called, the shutdown clauses are
below.  ``build_vo`` enlists each VO in the open :func:`audit_scope`
(``repro.runner`` opens one per work unit) and retains nothing outside
one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vo import VirtualOrganization

Clauses = Iterator[Tuple[str, str]]


class Violation(NamedTuple):
    """One broken clause: where (``plane``), which, and what was seen."""

    plane: str
    clause: str
    detail: str


def audit(vo: "VirtualOrganization") -> List[Violation]:
    """Every broken clause of ``vo`` (empty list = consistent)."""
    found = [Violation(f"{plane.name}@{site}", clause, detail)
             for site, stack in vo.stacks.items() for plane in stack.planes
             for clause, detail in plane.invariants()]
    found += [Violation("overlay", *broken) for broken in _overlay(vo)]
    found += [Violation("network", *broken) for broken in _traffic(vo)]
    if vo.stopped:
        found += [Violation("vo", *broken) for broken in _shutdown(vo)]
    return found


def _overlay(vo: "VirtualOrganization") -> Clauses:
    epochs: Dict[str, set] = {}
    claims: Dict[Tuple[str, int], str] = {}
    for name, stack in vo.stacks.items():
        view = stack.rdm.overlay.view
        if not stack.site.online or not view.super_peer:
            continue  # offline, or never assigned (joined after the election)
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


def _traffic(vo: "VirtualOrganization") -> Clauses:
    """Every leg on the wire was sent by one node; a leg to an offline
    node is sent but never received, so inbound may only fall short."""
    net, nodes = vo.network, vo.network.nodes.values()
    wire = (net.total_bytes, net.total_messages)
    sent = (sum(n.bytes_out for n in nodes), sum(n.messages_out for n in nodes))
    received = (sum(n.bytes_in for n in nodes), sum(n.messages_in for n in nodes))
    if sent != wire:
        yield "traffic-conserved", f"sent {sent} != wire {wire} (bytes, messages)"
    elif received[0] > wire[0] or received[1] > wire[1]:
        yield "traffic-conserved", f"received {received} > wire {wire} (bytes, messages)"


def _shutdown(vo: "VirtualOrganization") -> Clauses:
    pending = vo.sim.peek()
    if pending != float("inf"):
        yield "agenda-empty", f"next event at t={pending}"
    for name, node in vo.network.nodes.items():
        if node.cpu.run_queue_length:
            yield "cpu-released", f"{name}: {node.cpu.run_queue_length} CPU grants"
        if node.inflight_rpcs:
            yield "no-rpc-in-flight", f"{name}: {node.inflight_rpcs} RPCs in flight"
    for span in vo.obs.tracer.leaked_spans():
        yield "spans-closed", f"leaked span {span.name}"
    for owner in vo.background():
        if owner.running:
            yield "loops-stopped", f"{owner!r}: background loop still running"


#: the VOs built inside the innermost open :func:`audit_scope`
_scope: Optional[List["VirtualOrganization"]] = None


def enlist(vo: "VirtualOrganization") -> None:
    """``build_vo``'s hook: hand ``vo`` to the open scope, if any."""
    if _scope is not None:
        _scope.append(vo)


@contextmanager
def audit_scope() -> Iterator[List["VirtualOrganization"]]:
    """Collect every VO ``build_vo`` assembles inside the ``with``."""
    global _scope
    outer, _scope = _scope, []
    try:
        yield _scope
    finally:
        _scope = outer
