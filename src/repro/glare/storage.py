"""Pluggable registry storage backends and the sharding ring.

*Registry logic* is separate from *storage mechanism*, the shape the
ioncore-python ``ResourceRegistryService`` exemplar uses
(``backend_class`` chosen by config, service logic backend-agnostic):

* :class:`RegistryBackend` — the storage contract (``get / put /
  delete / scan / lut / __len__``), documented on the class and enforced
  by the parametrized suite in ``tests/glare/test_storage_backends.py``.
* :class:`DictBackend` — the paper's flat hash table, the default: one
  dict, insertion-order scans.
* :class:`HashRing` — seeded consistent hashing with virtual nodes, an
  immutable interned *value*: one ring per ``(ordered nodes,
  virtual_nodes, seed)``, shared by everyone who asks for it.
* :class:`ShardedBackend` — the namespace partitioned over ring nodes
  into per-shard dicts; :meth:`ShardedBackend.rebalance` moves only the
  keys whose owner changed.
* :class:`StorageConfig` — the plane's switches, threaded through
  ``build_vo(storage=...)``; the default (dict backend, routing off)
  keeps every paper fingerprint byte-identical.

``repro.glare.resolution.DirectoryPlane`` routes across groups with the
ring over the overlay view's super-peers; this module holds only the
data-structure layer, so it stays simulation-free and unit-testable.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple


#: memoised ``stable_hash`` (routing hashes the same few thousand type
#: names over and over), the interned rings, and the bound of a ring's
#: own ``key -> owner`` memo.  All bounded like
#: ``net.message._STR_REPR_LEN``: cleared wholesale at the limit.
_STABLE_HASH: Dict[str, int] = {}
_STABLE_HASH_LIMIT = 4096
_RINGS: Dict[Tuple[Tuple[str, ...], int, int], "HashRing"] = {}
_RINGS_LIMIT = 64
_ROUTES_LIMIT = 4096


def _remember(table: Dict, limit: int, key: Any, value: Any) -> Any:
    """Store ``value`` in a bounded memo ``table`` and hand it back."""
    if len(table) >= limit:
        table.clear()
    table[key] = value
    return value


def _sha64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def stable_hash(text: str) -> int:
    """Seed-free 64-bit hash of ``text``, stable across processes.

    ``hash()`` is salted per-interpreter (PYTHONHASHSEED), which would
    make shard placement differ between runs and between pool workers —
    every determinism fingerprint in the harness would break.  sha256
    is stable everywhere; each distinct ``text`` pays for it once.
    """
    value = _STABLE_HASH.get(text)
    if value is None:
        value = _remember(_STABLE_HASH, _STABLE_HASH_LIMIT, text, _sha64(text))
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
    """Seeded consistent-hash ring with virtual nodes: an interned value.

    Each node is placed at ``virtual_nodes`` points derived from
    ``sha256(seed:node:replica)``; a key routes to the first node
    clockwise from its own hash.  The constructor is the one way to get
    a ring and returns the *same object* for the same ordered nodes (a
    repeat counts once), ``virtual_nodes`` and ``seed``: every home of
    equal ``shards`` shares one shard ring, every site of an overlay
    view one directory ring, route memo included.  Order is identity
    though it never changes routing: :meth:`nodes` order is
    ``ShardedBackend.scan()`` order, and scans feed fingerprints.  A
    ring is immutable; another membership is another ring.  Pinned by
    the test suite:

    * **Deterministic placement** — same (nodes, seed, virtual_nodes)
      always yields the same routing, independent of insertion order.
    * **Balance** — with enough virtual nodes, shard sizes stay within
      a small factor of N/nodes (fig17 measures the realized bound).
    * **Minimal movement** — a ring of one node more or less only
      remaps keys whose clockwise-first owner changed, ~N/nodes keys.
    """

    def __new__(cls, nodes: Iterable[str] = (), virtual_nodes: int = 64,
                seed: int = 0) -> "HashRing":
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        members = tuple(dict.fromkeys(nodes))
        key = (members, virtual_nodes, seed)
        ring = _RINGS.get(key)
        if ring is None:
            # one stable sort: equal points stay in member order
            placed = sorted(
                ((_sha64(f"{seed}:{node}:{replica}"), node)
                 for node in members for replica in range(virtual_nodes)),
                key=itemgetter(0))
            ring = super().__new__(cls)
            ring.virtual_nodes, ring.seed = virtual_nodes, seed
            ring._nodes, ring._routes = members, {}
            ring._points = tuple(point for point, _ in placed)
            ring._owners = tuple(node for _, node in placed)
            _remember(_RINGS, _RINGS_LIMIT, key, ring)
        return ring

    def nodes(self) -> List[str]:
        """The ring's member nodes, in insertion order."""
        return list(self._nodes)

    def route(self, key: str) -> str:
        """The node owning ``key`` (first point clockwise of its hash)."""
        owner = self._routes.get(key)
        if owner is None:
            if not self._points:
                raise LookupError("cannot route on an empty ring")
            idx = bisect_right(self._points, stable_hash(key))
            owner = _remember(self._routes, _ROUTES_LIMIT, key,
                              self._owners[idx % len(self._owners)])
        return owner

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
    Rings take :class:`HashRing`'s own ``virtual_nodes`` and ``seed``,
    so homes of equal ``shards`` share one ring and own only their dicts.
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
