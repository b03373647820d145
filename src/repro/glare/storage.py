"""Pluggable registry storage backends and the sharding ring.

Both GLARE registries historically kept the entire type namespace in a
flat in-process dict (``ResourceHome._resources``) — the hash table the
paper credits for beating the XPath-scanning WS-MDS index.  That stays
the default, but it caps the namespace at what one process comfortably
holds and makes every super-peer a full replica of the directory.

This module separates *registry logic* from *storage mechanism*, the
shape the ioncore-python ``ResourceRegistryService`` exemplar uses
(``backend_class`` chosen by config, service logic backend-agnostic):

* :class:`RegistryBackend` — the minimal storage contract
  (``get / put / delete / scan / lut / __len__``).  The conformance
  contract is documented on the class and enforced by the parametrized
  suite in ``tests/glare/test_storage_backends.py``.
* :class:`DictBackend` — today's behavior, byte-identical: one flat
  dict, insertion-order scans.
* :class:`HashRing` — seeded consistent hashing with virtual nodes;
  deterministic placement, bounded imbalance, minimal movement when
  nodes join or leave.
* :class:`ShardedBackend` — the namespace partitioned over ring nodes
  into per-shard dicts, with :meth:`ShardedBackend.rebalance` moving
  only the keys whose owner changed.
* :class:`StorageConfig` — the plane's switches, threaded through
  ``build_vo(storage=...)``; default is the dict backend with routing
  off, so existing fingerprints stay byte-identical.

Distributed routing (``repro.glare.resolution.DirectoryPlane``) builds
a :class:`HashRing` over the overlay view's super-peers and uses the
epoch-stamped ``TypeDigest`` as the routing table; this module holds
only the data-structure layer, so it stays simulation-free and directly
unit-testable.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple


#: memoised ``stable_hash``: routing hashes the same few thousand type
#: names and ring points over and over.  Bounded like
#: ``net.message._STR_REPR_LEN``: cleared wholesale at the limit.
_STABLE_HASH: Dict[str, int] = {}
_STABLE_HASH_LIMIT = 4096


def stable_hash(text: str) -> int:
    """Seed-free 64-bit hash of ``text``, stable across processes.

    ``hash()`` is salted per-interpreter (PYTHONHASHSEED), which would
    make shard placement differ between runs and between pool workers —
    every determinism fingerprint in the harness would break.  sha256
    is stable everywhere; each distinct ``text`` pays for it once.
    """
    value = _STABLE_HASH.get(text)
    if value is None:
        value = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
        if len(_STABLE_HASH) >= _STABLE_HASH_LIMIT:
            _STABLE_HASH.clear()
        _STABLE_HASH[text] = value
    return value


class RegistryBackend(ABC):
    """Storage contract for registry resource homes.

    Conformance contract (enforced by the parametrized backend suite):

    * ``put`` then ``get`` returns the stored value; ``put`` under an
      existing key replaces the value.
    * ``get`` / ``delete`` of an absent key return ``None`` (never
      raise).
    * ``delete`` returns the removed value and removes it from
      subsequent ``get`` / ``scan`` / ``__len__``.
    * ``scan()`` yields every live ``(key, value)`` pair exactly once;
      mutating during a scan of the *materialized* iteration is safe
      because implementations snapshot.
    * ``__len__`` counts stored keys.
    * ``lut(key)`` returns the value's ``last_update_time`` when the
      stored value carries one, else ``None`` — the one registry-domain
      accessor backends provide so LUT batch reads need not materialize
      resources.
    """

    @abstractmethod
    def get(self, key: str) -> Optional[Any]:
        """Value stored under ``key``, or None."""

    @abstractmethod
    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, replacing any existing value."""

    @abstractmethod
    def delete(self, key: str) -> Optional[Any]:
        """Remove and return the value under ``key`` (None if absent)."""

    @abstractmethod
    def scan(self) -> Iterator[Tuple[str, Any]]:
        """Snapshot iteration over all ``(key, value)`` pairs."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored keys."""

    def lut(self, key: str) -> Optional[float]:
        """LastUpdateTime of the value under ``key``, if it has one."""
        value = self.get(key)
        if value is None:
            return None
        return getattr(value, "last_update_time", None)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class DictBackend(RegistryBackend):
    """The classic flat hash table — today's behavior, byte-identical.

    Scans yield in insertion order, exactly like iterating the dict the
    ``ResourceHome`` used to own, so every fingerprint that hashes a
    ``keys()`` walk is unchanged.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}

    def get(self, key: str) -> Optional[Any]:
        return self._data.get(key)

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value

    def delete(self, key: str) -> Optional[Any]:
        return self._data.pop(key, None)

    def scan(self) -> Iterator[Tuple[str, Any]]:
        return iter(list(self._data.items()))

    def __len__(self) -> int:
        return len(self._data)


class HashRing:
    """Seeded consistent-hash ring with virtual nodes.

    Each node is placed at ``virtual_nodes`` points derived from
    ``sha256(seed:node:replica)``; a key routes to the first node
    clockwise from its own hash.  Properties the test suite pins:

    * **Deterministic placement** — same (nodes, seed, virtual_nodes)
      always yields the same routing, independent of insertion order.
    * **Balance** — with enough virtual nodes, shard sizes stay within
      a small factor of N/nodes (fig17 measures the realized bound).
    * **Minimal movement** — adding or removing one node only remaps
      keys whose clockwise-first owner changed, ~N/nodes keys.
    """

    def __init__(
        self,
        nodes: Sequence[str] = (),
        virtual_nodes: int = 64,
        seed: int = 0,
    ) -> None:
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        self.seed = seed
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: List[str] = []
        for node in nodes:
            self.add_node(node)

    def _node_points(self, node: str) -> List[int]:
        return [
            stable_hash(f"{self.seed}:{node}:{replica}")
            for replica in range(self.virtual_nodes)
        ]

    def nodes(self) -> List[str]:
        """The ring's member nodes, in insertion order."""
        return list(self._nodes)

    def add_node(self, node: str) -> None:
        """Place ``node`` on the ring (no-op if already present)."""
        if node in self._nodes:
            return
        self._nodes.append(node)
        for point in self._node_points(node):
            idx = bisect_right(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def remove_node(self, node: str) -> None:
        """Remove ``node`` and all its virtual points (no-op if absent)."""
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def route(self, key: str) -> str:
        """The node owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise LookupError("cannot route on an empty ring")
        idx = bisect_right(self._points, stable_hash(key))
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def __len__(self) -> int:
        return len(self._nodes)


class ShardedBackend(RegistryBackend):
    """The namespace consistent-hashed into per-node shard dicts.

    Logically one key space — ``get``/``put``/``delete`` route through
    the ring transparently, so registry logic never sees shards.  The
    shard map is observable (:meth:`shard_sizes`) for the memory-bound
    assertions in fig17, and :meth:`rebalance` re-homes only moved keys
    when the ring changes (a view change in the overlay).
    """

    def __init__(self, ring: HashRing) -> None:
        self.ring = ring
        if not len(self.ring):
            raise ValueError("ShardedBackend needs a ring with >= 1 node")
        self._shards: Dict[str, Dict[str, Any]] = {
            node: {} for node in self.ring.nodes()
        }

    def _shard_for(self, key: str) -> Dict[str, Any]:
        return self._shards[self.ring.route(key)]

    def get(self, key: str) -> Optional[Any]:
        return self._shard_for(key).get(key)

    def put(self, key: str, value: Any) -> None:
        self._shard_for(key)[key] = value

    def delete(self, key: str) -> Optional[Any]:
        return self._shard_for(key).pop(key, None)

    def scan(self) -> Iterator[Tuple[str, Any]]:
        items: List[Tuple[str, Any]] = []
        for node in self.ring.nodes():
            items.extend(self._shards[node].items())
        return iter(items)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def shard_sizes(self) -> Dict[str, int]:
        """Resident key count per shard (fig17's memory-bound metric)."""
        return {node: len(shard) for node, shard in self._shards.items()}

    def imbalance(self) -> float:
        """max shard size over the ideal N/shards mean (1.0 = perfect)."""
        total = len(self)
        if not total:
            return 1.0
        mean = total / len(self._shards)
        return max(len(s) for s in self._shards.values()) / mean

    def rebalance(self, new_ring: HashRing) -> int:
        """Adopt ``new_ring``, moving only keys whose owner changed.

        Returns the number of keys moved — the minimal-movement test
        asserts this stays ~N/nodes for a single-node change.
        """
        old_items = list(self.scan())
        moved = 0
        new_shards: Dict[str, Dict[str, Any]] = {
            node: {} for node in new_ring.nodes()
        }
        for node in self.ring.nodes():
            if node in new_shards:
                new_shards[node] = self._shards[node]
        for key, value in old_items:
            old_owner = self.ring.route(key)
            new_owner = new_ring.route(key)
            if old_owner != new_owner or old_owner not in new_shards:
                source = self._shards[old_owner]
                if key in source:
                    del source[key]
                new_shards[new_owner][key] = value
                moved += 1
        self.ring = new_ring
        self._shards = new_shards
        return moved


@dataclass(frozen=True)
class StorageConfig:
    """The storage plane's switches, threaded through ``build_vo``.

    ``backend`` picks each registry's resource-home storage: ``"dict"``
    (the paper's flat hash table) or ``"sharded"`` (partitioned over an
    in-process :class:`HashRing` of ``shards`` nodes).  ``routing``
    turns on the cross-group shard directory
    (:class:`~repro.glare.resolution.DirectoryPlane`: a ring over the
    overlay's super-peers, ``shard_note`` hand-off on registration,
    ``shard_lookup`` escalation instead of super-peer broadcast).
    Rings take :class:`HashRing`'s own ``virtual_nodes`` and ``seed``.
    """

    backend: str = "dict"
    shards: int = 4
    routing: bool = False

    #: flat dict, no routing — the one default every constructor shares
    PAPER: ClassVar["StorageConfig"]

    def __post_init__(self) -> None:
        if self.backend not in ("dict", "sharded"):
            raise ValueError(f"unknown storage backend {self.backend!r}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    @classmethod
    def sharded(cls, shards: int = 4, routing: bool = False) -> "StorageConfig":
        """Sharded in-process backend (optionally with RDM routing)."""
        return cls(backend="sharded", shards=shards, routing=routing)

    def make_backend(self) -> RegistryBackend:
        """Build a fresh backend instance for one resource home."""
        if self.backend == "dict":
            return DictBackend()
        return ShardedBackend(
            HashRing([f"shard-{i}" for i in range(self.shards)]))


StorageConfig.PAPER = StorageConfig()


__all__ = [
    "DictBackend",
    "HashRing",
    "RegistryBackend",
    "ShardedBackend",
    "StorageConfig",
    "stable_hash",
]
