"""Network topology: sites and links with latency/bandwidth.

The Austrian Grid connected ~10 sites across several cities; we model
the wide-area fabric as an undirected graph whose edges carry one-way
propagation latency (seconds) and bandwidth (bytes/second).  Paths use
networkx shortest-path by latency; the effective path bandwidth is the
bottleneck link.  Results are memoised because topologies are static
during an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import networkx as nx


@dataclass(frozen=True)
class Link:
    """A bidirectional network link."""

    a: str
    b: str
    latency: float  # one-way propagation delay, seconds
    bandwidth: float  # bytes per second

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("link latency must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")


class Topology:
    """Static site/link graph with latency- and bandwidth-queries."""

    #: latency used for a node talking to itself (loopback)
    LOOPBACK_LATENCY = 1e-5
    LOOPBACK_BANDWIDTH = 1e9

    def __init__(self) -> None:
        self._graph = nx.Graph()
        #: (src, dst) -> (latency, bandwidth); one search fills both directions
        self._path_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        #: (src, dst) -> edges of the path a search *from src* found (per
        #: direction: the reverse search may break latency ties differently)
        self._edge_cache: Dict[Tuple[str, str], Tuple[Tuple[str, str], ...]] = {}

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (read-only by convention)."""
        return self._graph

    def add_site(self, name: str) -> None:
        """Register a site node."""
        self._graph.add_node(name)
        self._forget_paths()

    def sites(self) -> List[str]:
        """All registered site names."""
        return list(self._graph.nodes)

    def add_link(self, a: str, b: str, latency: float, bandwidth: float) -> None:
        """Connect sites ``a`` and ``b`` (adds the nodes if missing)."""
        link = Link(a, b, latency, bandwidth)
        self._graph.add_edge(a, b, latency=link.latency, bandwidth=link.bandwidth)
        self._forget_paths()

    def _forget_paths(self) -> None:
        self._path_cache.clear()
        self._edge_cache.clear()

    def links(self) -> Iterable[Link]:
        """Iterate over all links."""
        for a, b, data in self._graph.edges(data=True):
            yield Link(a, b, data["latency"], data["bandwidth"])

    def has_path(self, src: str, dst: str) -> bool:
        """True when ``src`` can reach ``dst``."""
        if src == dst:
            return src in self._graph
        try:
            return nx.has_path(self._graph, src, dst)
        except nx.NodeNotFound:
            return False

    def _search(self, src: str, dst: str) -> List[str]:
        """One shortest-path search from ``src``: the sites on the path.

        The first search of a pair, in either direction, fixes its
        ``(latency, bandwidth)`` for both.
        """
        try:
            path = nx.shortest_path(self._graph, src, dst, weight="latency")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as error:
            raise ValueError(f"no path between {src!r} and {dst!r}") from error
        if (src, dst) not in self._path_cache:
            latency = 0.0
            bandwidth = float("inf")
            for u, v in zip(path, path[1:]):
                data = self._graph.edges[u, v]
                latency += data["latency"]
                bandwidth = min(bandwidth, data["bandwidth"])
            self._path_cache[src, dst] = self._path_cache[dst, src] = (
                latency, bandwidth)
        return path

    def path_edges(self, src: str, dst: str) -> Tuple[Tuple[str, str], ...]:
        """Edges (as sorted pairs) on the minimum-latency path.

        Memoised per direction on first request (only contended
        transfers ask), so a pair costs one search here however many
        transfers cross it.
        """
        if src == dst:
            return ()
        edges = self._edge_cache.get((src, dst))
        if edges is None:
            path = self._search(src, dst)
            edges = self._edge_cache[src, dst] = tuple(
                tuple(sorted(hop)) for hop in zip(path, path[1:]))
        return edges

    def path_metrics(self, src: str, dst: str) -> Tuple[float, float]:
        """``(latency, bandwidth)`` of the best path from src to dst.

        Latency is the sum of link latencies on the minimum-latency
        path; bandwidth is the bottleneck link on that path.
        """
        if src == dst:
            return (self.LOOPBACK_LATENCY, self.LOOPBACK_BANDWIDTH)
        cached = self._path_cache.get((src, dst))
        if cached is None:
            self._search(src, dst)
            cached = self._path_cache[src, dst]
        return cached

    def rank_sources(self, dst: str, sources: Iterable[str]) -> List[Tuple[str, float, float]]:
        """Order candidate ``sources`` by proximity to ``dst``, best first.

        Returns ``(site, latency, bandwidth)`` triples sorted by (path
        latency ascending, bottleneck bandwidth descending, name) — the
        replica-selection rule: prefer the source the bytes reach
        ``dst`` from fastest, with a deterministic tie-break.  Callers
        that track dynamic load (GridFTP replica selection) break the
        remaining ties themselves.  Unreachable sources are dropped.
        """
        ranked: List[Tuple[float, float, str]] = []
        for source in sources:
            try:
                latency, bandwidth = self.path_metrics(source, dst)
            except ValueError:
                continue
            ranked.append((latency, -bandwidth, source))
        ranked.sort()
        return [(name, latency, -neg_bw) for latency, neg_bw, name in ranked]

    # -- convenience builders -------------------------------------------

    @classmethod
    def star(
        cls,
        center: str,
        leaves: Iterable[str],
        latency: float = 0.005,
        bandwidth: float = 12.5e6,
    ) -> "Topology":
        """A star topology (typical national-Grid hub-and-spoke)."""
        topo = cls()
        topo.add_site(center)
        for leaf in leaves:
            topo.add_link(center, leaf, latency, bandwidth)
        return topo

    @classmethod
    def full_mesh(
        cls,
        names: Iterable[str],
        latency: float = 0.005,
        bandwidth: float = 12.5e6,
    ) -> "Topology":
        """A complete graph over ``names``."""
        topo = cls()
        nodes = list(names)
        for name in nodes:
            topo.add_site(name)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                topo.add_link(a, b, latency, bandwidth)
        return topo
