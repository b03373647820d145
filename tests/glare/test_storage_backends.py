"""Conformance suite for registry storage backends + ring properties.

One parametrized suite runs against every :class:`RegistryBackend`
implementation, pinning the contract documented on the ABC; separate
classes pin the :class:`HashRing` guarantees (deterministic placement,
balance, minimal movement) and the ``op_get_lut_batch`` wire-size fix.
"""

import hashlib
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.glare import storage
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.glare.registry import (
    ActivityDeploymentRegistry,
    ActivityTypeRegistry,
    ATR_SERVICE,
    ADR_SERVICE,
)
from repro.glare.storage import (
    DictBackend,
    HashRing,
    ShardedBackend,
    StorageConfig,
    stable_hash,
)
from repro.net.message import Message, Response, estimate_size
from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator


class _Stamped:
    def __init__(self, lut):
        self.last_update_time = lut


def _make_sharded():
    return ShardedBackend(HashRing([f"shard-{i}" for i in range(4)]))


@pytest.fixture(params=["dict", "sharded"])
def backend(request):
    return DictBackend() if request.param == "dict" else _make_sharded()


class TestBackendConformance:
    def test_put_get_roundtrip(self, backend):
        backend.put("a", 1)
        assert backend.get("a") == 1

    def test_put_replaces(self, backend):
        backend.put("a", 1)
        backend.put("a", 2)
        assert backend.get("a") == 2
        assert len(backend) == 1

    def test_get_absent_returns_none(self, backend):
        assert backend.get("ghost") is None

    def test_delete_returns_value_and_removes(self, backend):
        backend.put("a", 7)
        assert backend.delete("a") == 7
        assert backend.get("a") is None
        assert len(backend) == 0

    def test_delete_absent_returns_none(self, backend):
        assert backend.delete("ghost") is None

    def test_scan_yields_every_pair_once(self, backend):
        expected = {f"k{i}": i for i in range(50)}
        for key, value in expected.items():
            backend.put(key, value)
        assert dict(backend.scan()) == expected
        assert len(list(backend.scan())) == 50

    def test_scan_is_snapshot_safe(self, backend):
        for i in range(10):
            backend.put(f"k{i}", i)
        seen = []
        for key, _ in backend.scan():
            backend.delete(key)  # mutation mid-scan must not blow up
            seen.append(key)
        assert sorted(seen) == sorted(f"k{i}" for i in range(10))
        assert len(backend) == 0

    def test_len_counts_keys(self, backend):
        for i in range(5):
            backend.put(f"k{i}", i)
        assert len(backend) == 5

    def test_contains(self, backend):
        backend.put("a", 1)
        assert "a" in backend
        assert "b" not in backend

    def test_lut_reads_last_update_time(self, backend):
        backend.put("stamped", _Stamped(12.5))
        backend.put("plain", object())
        assert backend.lut("stamped") == 12.5
        assert backend.lut("plain") is None
        assert backend.lut("ghost") is None


class TestDictBackendOrder:
    def test_scan_preserves_insertion_order(self):
        # the property every keys()-walk fingerprint relies on
        backend = DictBackend()
        for key in ("z", "a", "m"):
            backend.put(key, key.upper())
        assert [k for k, _ in backend.scan()] == ["z", "a", "m"]


class TestHashRing:
    def test_deterministic_placement_from_seed(self):
        keys = [f"type-{i}" for i in range(500)]
        ring_a = HashRing(["n0", "n1", "n2"], seed=7)
        ring_b = HashRing(["n2", "n0", "n1"], seed=7)  # insertion order differs
        assert [ring_a.route(k) for k in keys] == [ring_b.route(k) for k in keys]

    def test_seed_changes_placement(self):
        keys = [f"type-{i}" for i in range(500)]
        ring_a = HashRing(["n0", "n1", "n2"], seed=0)
        ring_b = HashRing(["n0", "n1", "n2"], seed=1)
        assert ([ring_a.route(k) for k in keys]
                != [ring_b.route(k) for k in keys])

    def test_balance_within_bound(self):
        ring = HashRing([f"n{i}" for i in range(8)], virtual_nodes=64)
        counts = {node: 0 for node in ring.nodes()}
        n_keys = 10_000
        for i in range(n_keys):
            counts[ring.route(f"activity-type-{i:05d}")] += 1
        mean = n_keys / 8
        # 64 virtual nodes keep the realized imbalance well under 2x
        # at this occupancy (fig17 records the measured values)
        assert max(counts.values()) <= mean * 2.0
        assert min(counts.values()) >= mean * 0.3

    def test_minimal_movement_on_node_join(self):
        keys = [f"type-{i}" for i in range(4000)]
        before = HashRing([f"n{i}" for i in range(8)])
        after = HashRing([f"n{i}" for i in range(9)])
        moved = sum(1 for k in keys if before.route(k) != after.route(k))
        # the joining node should take ~1/9 of the keys and nothing
        # else should move; allow 2x headroom for ring statistics
        assert moved <= 2 * len(keys) / 9
        # every moved key must have moved TO the new node
        for key in keys:
            if before.route(key) != after.route(key):
                assert after.route(key) == "n8"

    def test_route_on_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().route("anything")

    def test_virtual_nodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(virtual_nodes=0)

    def test_add_remove_roundtrip(self):
        ring = HashRing(["a", "b"])
        ring.add_node("c")
        ring.add_node("c")  # idempotent
        assert sorted(ring.nodes()) == ["a", "b", "c"]
        ring.remove_node("b")
        ring.remove_node("b")  # idempotent
        assert sorted(ring.nodes()) == ["a", "c"]
        assert all(ring.route(f"k{i}") in ("a", "c") for i in range(100))

    def test_stable_hash_is_process_stable(self):
        # pinned value: breaks if stable_hash ever falls back to hash()
        assert stable_hash("activity-type") == 0xD91A32000FCA3E91
        assert stable_hash("activity-type") == stable_hash("activity-type")
        assert stable_hash("a") != stable_hash("b")

    def test_stable_hash_memo_refills_after_crossing_its_bound(self, monkeypatch):
        monkeypatch.setattr(storage, "_STABLE_HASH", {})
        monkeypatch.setattr(storage, "_STABLE_HASH_LIMIT", 4)
        keys = [f"type-{i}" for i in range(10)]
        first = [stable_hash(key) for key in keys]
        # cleared wholesale at the limit, never larger than it
        assert 0 < len(storage._STABLE_HASH) <= 4
        assert first == [_unmemoised_hash(key) for key in keys]
        assert [stable_hash(key) for key in keys] == first

    @given(st.lists(st.text(), max_size=30))
    def test_route_agrees_with_an_unmemoised_hash(self, keys):
        ring = HashRing([f"n{i}" for i in range(5)], virtual_nodes=8)
        for key in keys + keys:  # the second pass is answered by the memo
            at = bisect_right(ring._points, _unmemoised_hash(key))
            assert ring.route(key) == ring._owners[at % len(ring._owners)]


def _unmemoised_hash(text):
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class TestShardedRebalance:
    def test_rebalance_moves_only_owner_changed_keys(self):
        ring = HashRing([f"n{i}" for i in range(4)])
        backend = ShardedBackend(ring)
        for i in range(2000):
            backend.put(f"type-{i}", i)
        grown = HashRing([f"n{i}" for i in range(5)])
        expected_moves = sum(
            1 for i in range(2000)
            if ring.route(f"type-{i}") != grown.route(f"type-{i}")
        )
        moved = backend.rebalance(grown)
        assert moved == expected_moves
        assert moved <= 2 * 2000 / 5
        # no key lost, every key readable at its new home
        assert len(backend) == 2000
        assert all(backend.get(f"type-{i}") == i for i in range(0, 2000, 97))

    def test_rebalance_handles_node_removal(self):
        backend = ShardedBackend(HashRing(["a", "b", "c"]))
        for i in range(300):
            backend.put(f"k{i}", i)
        backend.rebalance(HashRing(["a", "c"]))
        assert len(backend) == 300
        assert "b" not in backend.shard_sizes()
        assert all(backend.get(f"k{i}") == i for i in range(300))

    def test_imbalance_metric(self):
        backend = _make_sharded()
        assert backend.imbalance() == 1.0  # empty = perfect by definition
        for i in range(1000):
            backend.put(f"type-{i}", i)
        assert 1.0 <= backend.imbalance() < 2.0


class TestStorageConfig:
    def test_defaults_are_off(self):
        config = StorageConfig()
        assert not config.routing
        assert isinstance(config.make_backend(), DictBackend)

    def test_sharded_factory(self):
        config = StorageConfig.sharded(shards=8, routing=True)
        assert config.routing
        backend = config.make_backend()
        assert isinstance(backend, ShardedBackend)
        assert len(backend.ring) == 8

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(backend="mongo")

    def test_backends_agree_on_registry_contents(self):
        # same writes through either backend → same reads: the
        # equivalence fig17 asserts at sweep scale
        dict_b = StorageConfig().make_backend()
        shard_b = StorageConfig.sharded(shards=16).make_backend()
        for i in range(500):
            key = f"activity-type-{i:04d}.domain{i % 7}"
            dict_b.put(key, _Stamped(float(i)))
            shard_b.put(key, _Stamped(float(i)))
        for i in range(500):
            key = f"activity-type-{i:04d}.domain{i % 7}"
            assert dict_b.lut(key) == shard_b.lut(key)
        assert dict(dict_b.scan()).keys() == dict(shard_b.scan()).keys()


# -- shard-note hand-off: ack + bounded retry ------------------------------


class TestShardNoteHandoff:
    """Group views land at different times, so a shard note can reach
    its ring owner before that owner is ready (view not applied, or a
    reset about to wipe the digest).  The sender must treat only
    *acknowledged* claims as forwarded and retry the rest — without
    this, claims announced during overlay formation are silently lost
    and routed lookups degrade to broadcast (observed at 64 groups)."""

    def _build(self):
        from repro.vo import build_vo

        vo = build_vo(n_sites=8, seed=29, group_size=4, monitors=False,
                      lifecycle=False, cache_enabled=False,
                      storage=StorageConfig.sharded(shards=4, routing=True))
        vo.form_overlay()
        vo.sim.run(until=vo.sim.now + 16.0)  # initial hand-off settles
        sps = [s for s in vo.site_names
               if vo.stacks[s].rdm.overlay.is_super_peer]
        assert len(sps) == 2
        return vo, sps

    def _type_owned_by(self, ring, owner, sender):
        for i in range(1000):
            name = f"HandoffProbe{i:03d}"
            if ring.route(name) == owner and ring.route(name) != sender:
                return name
        raise AssertionError("no probe name routed to the target owner")

    def test_unready_owner_refuses_and_sender_retries(self):
        from repro.glare.model import ActivityType

        vo, (sp_a, sp_b) = self._build()
        rdm_a, rdm_b = vo.stacks[sp_a].rdm, vo.stacks[sp_b].rdm
        plane_a, plane_b = rdm_a.directory, rdm_b.directory
        name = self._type_owned_by(plane_a.ring, sp_b, sp_a)

        # stage the formation race: B's view "has not applied yet"
        real_epoch = rdm_b.overlay.view.epoch
        rdm_b.overlay.view.epoch = 0
        rdm_a.atr.add_local_type(ActivityType.from_xml(
            TYPE_XML.format(name=name)))
        vo.sim.run(until=vo.sim.now + 0.5)  # first announcement lands
        assert plane_b.digest.groups_for(name) is None
        assert name not in plane_a._forwarded_claims  # un-acked, not burned

        # B becomes ready; the bounded retry must deliver the claim
        rdm_b.overlay.view.epoch = real_epoch
        vo.sim.run(until=vo.sim.now + 2 * plane_a.SHARD_NOTE_RETRY_DELAY + 1.0)
        assert plane_b.digest.groups_for(name) == [sp_a]
        assert name in plane_a._forwarded_claims

    def test_acked_claims_are_not_resent(self):
        from repro.glare.model import ActivityType

        vo, (sp_a, sp_b) = self._build()
        rdm_a = vo.stacks[sp_a].rdm
        plane_a = rdm_a.directory
        name = self._type_owned_by(plane_a.ring, sp_b, sp_a)
        rdm_a.atr.add_local_type(ActivityType.from_xml(
            TYPE_XML.format(name=name)))
        vo.sim.run(until=vo.sim.now + 1.0)
        assert name in plane_a._forwarded_claims
        handoffs = plane_a.shard_handoffs
        # re-announcing the same claim is a no-op (no new hand-off RPC)
        vo.sim.process(plane_a._send_shard_notes([name]))
        vo.sim.run(until=vo.sim.now + 1.0)
        assert plane_a.shard_handoffs == handoffs


# -- op_get_lut_batch wire-size regression ---------------------------------


TYPE_XML = (
    '<ActivityTypeEntry name="{name}" kind="concrete">'
    "<Domain>demo</Domain></ActivityTypeEntry>"
)


@pytest.fixture()
def registry_world():
    sim = Simulator(seed=51)
    topo = Topology.full_mesh(["s0", "s1"], latency=0.003, bandwidth=1e7)
    net = Network(sim, topo)
    net.add_node("s0", cores=2)
    net.add_node("s1", cores=2)
    atr = ActivityTypeRegistry(net, "s0")
    adr = ActivityDeploymentRegistry(net, "s0", atr=atr)
    return sim, net, atr, adr


def _drive(sim, generator):
    proc = sim.process(generator)
    sim.run(until=proc)
    return proc.value


@pytest.mark.parametrize("which", ["atr", "adr"])
def test_lut_batch_response_accounts_for_key_lengths(registry_world, which):
    """The old heuristic charged max(256, 40*len) regardless of key
    size; with 60 long keys that undercharged the wire several-fold."""
    sim, net, atr, adr = registry_world
    long_keys = []
    from repro.glare.model import ActivityType

    for i in range(60):
        name = f"VeryLongActivityTypeNameForWireSizing{i:02d}" + "x" * 40
        atr.add_local_type(ActivityType.from_xml(TYPE_XML.format(name=name)))
        if which == "atr":
            long_keys.append(name)
        else:
            deployment = ActivityDeployment(
                name=f"{name.lower()}-bin", type_name=name,
                kind=DeploymentKind.EXECUTABLE, site="s0",
                path=f"/opt/{name}/bin/run", status=DeploymentStatus.ACTIVE,
            )
            adr.add_local_deployment(deployment)
            long_keys.append(deployment.key)

    service = atr if which == "atr" else adr
    message = Message(
        src="s1", dst="s0",
        service=ATR_SERVICE if which == "atr" else ADR_SERVICE,
        method="get_lut_batch", payload=long_keys,
    )
    response = _drive(sim, service.op_get_lut_batch(message))
    assert isinstance(response, Response)
    assert set(response.value) == set(long_keys)
    assert all(lut is not None for lut in response.value.values())
    # compositional-exact: the wire charge is the payload repr, which
    # necessarily exceeds the raw key bytes — and the old heuristic
    assert response.size == estimate_size(response.value)
    assert response.size >= sum(len(key) for key in long_keys)
    assert response.size > 40 * len(long_keys)
