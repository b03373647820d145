"""VO-wide consistency checks, used by chaos tests and debugging.

:func:`check_vo_invariants` sweeps a running
:class:`~repro.vo.VirtualOrganization` and returns a list of violation
strings (empty = healthy).  The checks encode what must hold whenever
the system is quiescent:

* overlay: every assigned *online* site has exactly one super-peer,
  which is a member of its own group and online-or-recently-failed;
  group epochs are consistent within a group;
* registries: the ADR's by-type index agrees with its deployment
  tables; every cached resource remembers its source EPR and the ADR's
  cached-deployment table has exactly the cache sources' keys; each
  registry's service group aggregates exactly its ``home``; deployments
  reference types known to the colocated ATR;
* hierarchy: acyclic (by construction, but re-verified);
* filesystem: every ACTIVE executable deployment's path exists and is
  executable on its site.

:func:`check_vo_quiescent` is the shutdown clause: what must hold after
``vo.stop(); vo.sim.run()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.glare.model import DeploymentKind, DeploymentStatus
from repro.site.filesystem import FilesystemError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vo import VirtualOrganization


def check_vo_invariants(vo: "VirtualOrganization",
                        check_files: bool = True) -> List[str]:
    """Return all invariant violations found (empty list = healthy)."""
    violations: List[str] = []
    violations += _check_overlay(vo)
    violations += _check_registries(vo)
    if check_files:
        violations += _check_files(vo)
    return violations


def check_vo_quiescent(vo: "VirtualOrganization") -> List[str]:
    """Violations of a clean shutdown (empty list = quiescent).

    Call after ``vo.stop(); vo.sim.run()``: the agenda is empty, no CPU
    grant is held or queued, no index worker is held or waited for, no
    RPC is in flight, no span leaked and no background loop is running.
    """
    out: List[str] = []
    pending = vo.sim.peek()
    if pending != float("inf"):
        out.append(f"agenda not empty: next event at t={pending}")
    for name, node in vo.network.nodes.items():
        if node.cpu.run_queue_length:
            out.append(f"{name}: {node.cpu.run_queue_length} CPU grants "
                       "held or queued")
        if node.inflight_rpcs:
            out.append(f"{name}: {node.inflight_rpcs} RPCs in flight")
    for name, stack in vo.stacks.items():
        index = stack.index
        if index is not None and (index.busy_workers or index.queued_queries):
            out.append(f"{index.name}@{name}: {index.busy_workers} index "
                       f"workers held, {index.queued_queries} queries queued")
    out += [f"leaked span {span.name}" for span in vo.obs.tracer.leaked_spans()]
    out += [f"{owner!r}: background loop still running"
            for owner in vo.background() if owner.running]
    return out


def _check_overlay(vo: "VirtualOrganization") -> List[str]:
    out: List[str] = []
    online = [n for n in vo.site_names if vo.stack(n).site.online]
    epochs_by_group: dict = {}
    for name in online:
        view = vo.rdm(name).overlay.view
        if not view.super_peer:
            continue  # never assigned (e.g. joined after last election)
        if view.role == "super-peer" and view.super_peer != name:
            out.append(f"{name}: super-peer role but view points at "
                       f"{view.super_peer}")
        if name not in view.member_sites():
            out.append(f"{name}: not a member of its own group")
        if view.super_peer not in view.member_sites():
            out.append(f"{name}: super-peer {view.super_peer} not in the "
                       "member list")
        epochs_by_group.setdefault((view.super_peer,), set()).add(view.epoch)
    for group, epochs in epochs_by_group.items():
        if len(epochs) > 1:
            out.append(f"group of {group[0]}: inconsistent epochs {epochs}")
    return out


def _check_registries(vo: "VirtualOrganization") -> List[str]:
    out: List[str] = []
    for name in vo.site_names:
        stack = vo.stack(name)
        atr, adr = stack.atr, stack.adr
        assert atr is not None and adr is not None
        # by_type index agrees with the deployment tables
        for type_name, keys in adr.by_type.items():
            for key in keys:
                if key not in adr.deployments and key not in adr.cached_deployments:
                    out.append(f"{name}: by_type[{type_name}] references "
                               f"unknown key {key}")
        for key, deployment in adr.deployments.items():
            if key not in adr.by_type.get(deployment.type_name, []):
                out.append(f"{name}: deployment {key} missing from by_type")
            if deployment.site != name:
                out.append(f"{name}: local deployment {key} claims site "
                           f"{deployment.site}")
            if atr.find_type(deployment.type_name) is None:
                out.append(f"{name}: deployment {key} has no type "
                           f"{deployment.type_name} in the ATR")
        # what the shared registry core keeps in step for both
        for label, registry in (("ATR", atr), ("ADR", adr)):
            # every cached resource knows its source
            for key in registry.cache.keys():
                if key not in registry.cache_sources:
                    out.append(f"{name}: {label} cached {key} has no source")
            # the service group aggregates exactly the local resources
            grouped = {entry.epr.key for entry in registry.aggregation.entries()}
            if grouped != set(registry.home.keys()):
                out.append(f"{name}: {label} service group holds "
                           f"{sorted(grouped)}, home {sorted(registry.home.keys())}")
        if set(adr.cached_deployments) != set(adr.cache_sources):
            out.append(f"{name}: cached deployments "
                       f"{sorted(adr.cached_deployments)} != cache sources "
                       f"{sorted(adr.cache_sources)}")
        # local home and hierarchy agree
        for type_name in atr.local_type_names():
            if atr.hierarchy.get(type_name) is None:
                out.append(f"{name}: local type {type_name} missing from "
                           "the hierarchy")
    return out


def _check_files(vo: "VirtualOrganization") -> List[str]:
    out: List[str] = []
    for name in vo.site_names:
        stack = vo.stack(name)
        fs = stack.site.fs
        assert stack.adr is not None
        for key, deployment in stack.adr.deployments.items():
            if (
                deployment.kind != DeploymentKind.EXECUTABLE
                or deployment.status != DeploymentStatus.ACTIVE
            ):
                continue
            try:
                entry = fs.get_file(deployment.path)
            except FilesystemError:
                out.append(f"{name}: ACTIVE deployment {key} path "
                           f"{deployment.path} missing on disk")
                continue
            if not entry.executable:
                out.append(f"{name}: ACTIVE deployment {key} path is not "
                           "executable")
    return out
