"""Network topology: sites and links with latency/bandwidth.

The Austrian Grid connected ~10 sites across several cities; we model
the wide-area fabric as an undirected graph whose edges carry one-way
propagation latency (seconds) and bandwidth (bytes/second), kept as an
insertion-ordered adjacency dict.  Paths are minimum-latency paths; the
effective path bandwidth is the bottleneck link.  Results are memoised
because topologies are static during an experiment.

Ties between equal-latency paths break as ``networkx.bidirectional_dijkstra``
breaks them (see :func:`_shortest_path`), the search networkx 3.6 runs for
``shortest_path(graph, src, dst, weight="latency")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

#: site -> {neighbour: (latency, bandwidth)}, both in the order added
Adjacency = Dict[str, Dict[str, Tuple[float, float]]]


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


def _shortest_path(adj: Adjacency, src: str, dst: str) -> Optional[List[str]]:
    """The minimum-latency path ``src`` .. ``dst``, or None if there is none.

    A bidirectional Dijkstra that ties exactly as networkx's does: the
    two searches alternate, forward first; heap entries are ``(dist,
    counter, site)`` from one shared counter; neighbours are relaxed in
    the order their links were added; a predecessor or the meeting site
    changes only on a strict improvement.
    """
    if src not in adj or dst not in adj:
        return None
    if src == dst:
        return [src]

    def walk(preds: Dict[str, Optional[str]], hop: Optional[str]) -> List[str]:
        hops = []
        while hop is not None:
            hops.append(hop)
            hop = preds[hop]
        return hops

    done: Tuple[Dict[str, float], ...] = ({}, {})
    seen: Tuple[Dict[str, float], ...] = ({src: 0}, {dst: 0})
    preds: Tuple[Dict[str, Optional[str]], ...] = ({src: None}, {dst: None})
    fringe: Tuple[list, ...] = ([(0, 0, src)], [(0, 1, dst)])
    counter = count(2)
    best: Optional[float] = None
    meet, side = src, 1
    while fringe[0] and fringe[1]:
        side = 1 - side
        dist, _, node = heappop(fringe[side])
        if node in done[side]:
            continue
        done[side][node] = dist
        if node in done[1 - side]:
            return walk(preds[0], meet)[::-1] + walk(preds[1], preds[1][meet])
        reached, other = seen[side], seen[1 - side]
        for nbr, (latency, _) in adj[node].items():
            length = dist + latency
            if nbr in done[side] or (nbr in reached and length >= reached[nbr]):
                continue
            reached[nbr] = length
            heappush(fringe[side], (length, next(counter), nbr))
            preds[side][nbr] = node
            if nbr in other and (best is None or best > length + other[nbr]):
                best, meet = length + other[nbr], nbr
    return None


class Routes(dict):
    """``(src, dst)`` -> ``(*path_metrics(src, dst), edges)``: the edges (sorted
    pairs) a search *from src* found, as the reverse may break ties otherwise.
    Every search fills it, so a read after a pair's first is a dict hit."""

    def __init__(self, topology: "Topology") -> None:
        super().__init__()
        self.topology = topology

    def __missing__(self, pair: Tuple[str, str]) -> tuple:
        if pair[0] != pair[1]:
            self.topology._search(*pair)
            return self[pair]
        route = self[pair] = (Topology.LOOPBACK_LATENCY, Topology.LOOPBACK_BANDWIDTH, ())
        return route


class Topology:
    """Static site/link graph with latency- and bandwidth-queries."""

    #: latency used for a node talking to itself (loopback)
    LOOPBACK_LATENCY = 1e-5
    LOOPBACK_BANDWIDTH = 1e9

    def __init__(self) -> None:
        self._adj: Adjacency = {}
        #: (src, dst) -> (latency, bandwidth); one search fills both directions
        self._path_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        #: the route memo, read (never written) as ``routes[src, dst]``
        self.routes = Routes(self)

    def __contains__(self, name: object) -> bool:
        return name in self._adj

    def add_site(self, name: str) -> None:
        """Register a site node (a known site is left as it is).

        A site without links lies on no path, so the memos stay.
        """
        self._adj.setdefault(name, {})

    def sites(self) -> List[str]:
        """All registered site names, in the order they were added."""
        return list(self._adj)

    def add_link(self, a: str, b: str, latency: float, bandwidth: float) -> None:
        """Connect sites ``a`` and ``b`` (adds the nodes if missing).

        Re-adding a link replaces its figures and keeps its place.
        """
        link = Link(a, b, latency, bandwidth)
        self._adj.setdefault(a, {})
        self._adj.setdefault(b, {})
        self._adj[a][b] = self._adj[b][a] = (link.latency, link.bandwidth)
        self._path_cache.clear()
        self.routes.clear()

    def links(self) -> Iterable[Link]:
        """Iterate over all links, each once, from its first-added end."""
        done = set()
        for a, neighbours in self._adj.items():
            for b, (latency, bandwidth) in neighbours.items():
                if b not in done:
                    yield Link(a, b, latency, bandwidth)
            done.add(a)

    def has_path(self, src: str, dst: str) -> bool:
        """True when ``src`` can reach ``dst``."""
        return _shortest_path(self._adj, src, dst) is not None

    def _search(self, src: str, dst: str) -> None:
        """One shortest-path search from ``src``, memoised in :attr:`routes`.

        The first search of a pair, in either direction, fixes its
        ``(latency, bandwidth)`` for both.
        """
        path = _shortest_path(self._adj, src, dst)
        if path is None:
            raise ValueError(f"no path between {src!r} and {dst!r}")
        if (src, dst) not in self._path_cache:
            latency = 0.0
            bandwidth = float("inf")
            for u, v in zip(path, path[1:]):
                hop_latency, hop_bandwidth = self._adj[u][v]
                latency += hop_latency
                bandwidth = min(bandwidth, hop_bandwidth)
            self._path_cache[src, dst] = self._path_cache[dst, src] = (
                latency, bandwidth)
        self.routes[src, dst] = (*self._path_cache[src, dst],
                                 tuple(tuple(sorted(hop)) for hop in zip(path, path[1:])))

    def path_edges(self, src: str, dst: str) -> Tuple[Tuple[str, str], ...]:
        """Edges (as sorted pairs) on the minimum-latency path."""
        return self.routes[src, dst][2]

    def path_metrics(self, src: str, dst: str) -> Tuple[float, float]:
        """``(latency, bandwidth)`` of the best path from src to dst.

        Latency is the sum of link latencies on the minimum-latency
        path; bandwidth is the bottleneck link on that path.
        """
        if src == dst:
            return (self.LOOPBACK_LATENCY, self.LOOPBACK_BANDWIDTH)
        return self._path_cache.get((src, dst)) or self.routes[src, dst][:2]

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
