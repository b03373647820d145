"""VO-wide metrics collection.

Aggregates the counters every subsystem already keeps (request
resolution tiers, cache hits, installs, traffic, elections) into one
structured snapshot — the observability layer an operator of the real
system would have had, and a convenient assertion surface for tests.
``repro report --format json`` carries it as the run record's
``stats`` section.

The per-site counters are read straight off each site's stack
(:func:`site_counters`), whether or not the hot-path observability
instruments (spans, histograms) are enabled, so this module needs no
``observability=True`` switch.

Byte accounting: :attr:`VOMetrics.total_bytes` counts every message
*leg* once on the wire (request and response are separate legs).  Each
leg is charged to exactly one node's ``bytes_out``, so the wire total
always equals the sum of per-node ``bytes_out`` — member sites plus the
non-member origin host, reported separately as
:attr:`VOMetrics.origin_bytes_out`.  The ``bytes_in`` sum matches too,
except for legs addressed to offline nodes (counted on the wire and at
the sender, never received).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vo import VirtualOrganization


@dataclass
class SiteMetrics:
    """Counters harvested from one site's stack."""

    site: str
    requests: int = 0
    resolved_locally: int = 0
    resolved_in_group: int = 0
    resolved_via_superpeer: int = 0
    resolved_by_deployment: int = 0
    type_lookups: int = 0
    type_cache_hits: int = 0
    deployment_lookups: int = 0
    deployment_cache_hits: int = 0
    installs_succeeded: int = 0
    installs_failed: int = 0
    notifications_sent: int = 0
    jobs_submitted: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    messages_in: int = 0
    messages_out: int = 0
    local_types: int = 0
    cached_types: int = 0
    local_deployments: int = 0
    cached_deployments: int = 0
    is_super_peer: bool = False
    reelections: int = 0


@dataclass
class VOMetrics:
    """A complete VO snapshot."""

    taken_at: float
    sites: Dict[str, SiteMetrics] = field(default_factory=dict)
    total_messages: int = 0
    total_bytes: int = 0
    #: traffic of non-member nodes (the origin pseudo-site): needed to
    #: reconcile per-node sums against the wire total
    origin_bytes_in: int = 0
    origin_bytes_out: int = 0

    # -- aggregates ---------------------------------------------------------

    def total(self, attribute: str) -> int:
        return sum(getattr(m, attribute) for m in self.sites.values())

    @property
    def site_bytes_out(self) -> int:
        """Bytes sent, summed over member sites only."""
        return self.total("bytes_out")

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire, each message leg counted exactly once."""
        return self.total_bytes

    def cache_hit_rate(self) -> float:
        """Fraction of registry lookups served from a cache."""
        lookups = self.total("type_lookups") + self.total("deployment_lookups")
        hits = self.total("type_cache_hits") + self.total("deployment_cache_hits")
        return hits / lookups if lookups else 0.0

    def resolution_breakdown(self) -> Dict[str, int]:
        """Where get_deployments requests were satisfied."""
        return {
            "local": self.total("resolved_locally"),
            "group": self.total("resolved_in_group"),
            "super-peer": self.total("resolved_via_superpeer"),
            "on-demand-deploy": self.total("resolved_by_deployment"),
        }


def site_counters(vo: "VirtualOrganization", name: str) -> Dict[str, object]:
    """Site ``name``'s live counters: exactly the keyword set of
    :class:`SiteMetrics` (minus ``site``)."""
    stack = vo.stack(name)
    rdm, atr, adr = stack.rdm, stack.atr, stack.adr
    runtime = vo.network.node(name)
    rm = rdm.request_manager
    dm = rdm.deployment_manager
    return {
        "requests": rm.requests,
        "resolved_locally": rm.resolved_locally,
        "resolved_in_group": rm.resolved_in_group,
        "resolved_via_superpeer": rm.resolved_via_superpeer,
        "resolved_by_deployment": rm.resolved_by_deployment,
        "type_lookups": atr.lookups,
        "type_cache_hits": atr.cache_hits,
        "deployment_lookups": adr.lookups,
        "deployment_cache_hits": adr.cache_hits,
        "installs_succeeded": dm.stats.installs_succeeded,
        "installs_failed": dm.stats.installs_failed,
        "notifications_sent": dm.stats.notifications_sent,
        "jobs_submitted": stack.gram.jobs_submitted,
        "bytes_in": runtime.bytes_in,
        "bytes_out": runtime.bytes_out,
        "messages_in": runtime.messages_in,
        "messages_out": runtime.messages_out,
        "local_types": len(atr.home),
        "cached_types": len(atr.cache),
        "local_deployments": len(adr.deployments),
        "cached_deployments": len(adr.cached_deployments),
        "is_super_peer": rdm.overlay.is_super_peer,
        "reelections": rdm.overlay.reelections,
    }


def collect_metrics(vo: "VirtualOrganization") -> VOMetrics:
    """Harvest a metrics snapshot from every site in the VO.

    Per-site counters come from :func:`site_counters`; wire totals come
    from the network.
    """
    snapshot = VOMetrics(
        taken_at=vo.sim.now,
        total_messages=vo.network.total_messages,
        total_bytes=vo.network.total_bytes,
    )
    for name in vo.site_names:
        snapshot.sites[name] = SiteMetrics(site=name, **site_counters(vo, name))
    members = set(vo.site_names)
    for node_name, runtime in vo.network.nodes.items():
        if node_name not in members:
            snapshot.origin_bytes_in += runtime.bytes_in
            snapshot.origin_bytes_out += runtime.bytes_out
    return snapshot
