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
        # the value API: another membership is another ring
        ring = HashRing(["a", "b"])
        grown = HashRing(ring.nodes() + ["c"])
        assert HashRing(grown.nodes() + ["c"]) is grown  # idempotent
        assert sorted(grown.nodes()) == ["a", "b", "c"]
        shrunk = HashRing([n for n in grown.nodes() if n != "b"])
        assert sorted(shrunk.nodes()) == ["a", "c"]
        assert all(shrunk.route(f"k{i}") in ("a", "c") for i in range(100))
        assert sorted(ring.nodes()) == ["a", "b"]  # the first is untouched

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


class ReferenceRing:
    """The ring as it was built while every holder built its own: node
    by node, each point ``bisect_right``-inserted.  The oracle for the
    one-sort build; ``point_hash`` lets a test force colliding points."""

    def __init__(self, nodes=(), virtual_nodes=64, seed=0,
                 point_hash=_unmemoised_hash):
        self._points = []
        self._owners = []
        self._nodes = []
        for node in nodes:
            if node in self._nodes:
                continue
            self._nodes.append(node)
            for replica in range(virtual_nodes):
                point = point_hash(f"{seed}:{node}:{replica}")
                idx = bisect_right(self._points, point)
                self._points.insert(idx, point)
                self._owners.insert(idx, node)

    def nodes(self):
        return list(self._nodes)


def _coarse_hash(text):
    return _unmemoised_hash(text) % 11  # most points collide


@pytest.fixture()
def cold_tables(monkeypatch):
    """Empty intern and routing-key tables for one test."""
    for table in ("_RINGS", "_STABLE_HASH"):
        monkeypatch.setattr(storage, table, {})


class TestRingIsAValue:
    """A ring is an immutable, interned function of its ordered nodes,
    ``virtual_nodes`` and ``seed`` — built by one sort, equal to the
    node-by-node build, shared by everyone who asks for it."""

    @given(st.lists(st.text(max_size=6), max_size=8),
           st.integers(1, 8), st.integers(0, 3))
    def test_bulk_build_equals_node_by_node_build(self, nodes, vnodes, seed):
        ring = HashRing(nodes, virtual_nodes=vnodes, seed=seed)
        oracle = ReferenceRing(nodes, virtual_nodes=vnodes, seed=seed)
        assert list(ring._points) == oracle._points
        assert list(ring._owners) == oracle._owners
        assert ring.nodes() == oracle.nodes()
        assert len(ring) == len(oracle.nodes())

    @given(st.lists(st.sampled_from("abcdef"), max_size=8), st.integers(1, 6))
    def test_colliding_points_keep_insertion_order(self, nodes, vnodes):
        # equal points are where a sort and an insert could disagree
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage, "_sha64", _coarse_hash)
            patch.setattr(storage, "_RINGS", {})
            ring = HashRing(nodes, virtual_nodes=vnodes)
        oracle = ReferenceRing(nodes, virtual_nodes=vnodes,
                               point_hash=_coarse_hash)
        assert list(ring._points) == oracle._points
        assert list(ring._owners) == oracle._owners

    @given(st.lists(st.text(max_size=4), min_size=2, max_size=6, unique=True),
           st.integers(1, 8), st.integers(0, 3))
    def test_equal_ordered_arguments_are_one_object(self, nodes, vnodes, seed):
        ring = HashRing(nodes, virtual_nodes=vnodes, seed=seed)
        assert HashRing(list(nodes), vnodes, seed) is ring
        assert HashRing(nodes + nodes[:1], vnodes, seed) is ring  # repeats drop
        assert HashRing(nodes, vnodes + 1, seed) is not ring
        assert HashRing(nodes, vnodes, seed + 1) is not ring
        # order is identity (nodes() is scan order), never routing
        turned = HashRing(nodes[::-1], vnodes, seed)
        assert turned is not ring and turned.nodes() == nodes[::-1]
        keys = [f"type-{i}" for i in range(50)]
        assert [turned.route(k) for k in keys] == [ring.route(k) for k in keys]

    def test_a_ring_in_hand_never_changes(self):
        ring = HashRing(["a", "b"])
        assert not hasattr(ring, "add_node") and not hasattr(ring, "remove_node")
        assert isinstance(ring._points, tuple)
        assert isinstance(ring._owners, tuple)
        keys = [f"type-{i}" for i in range(200)]
        before = [ring.route(k) for k in keys]
        grown = HashRing(ring.nodes() + ["c"])
        assert grown is not ring and len(grown) == 3
        assert HashRing(["a", "b"]) is ring and len(ring) == 2
        assert [ring.route(k) for k in keys] == before
        assert set(before) == {"a", "b"}
        assert "c" in {grown.route(k) for k in keys}

    def test_intern_table_refills_after_crossing_its_bound(
            self, monkeypatch, cold_tables):
        monkeypatch.setattr(storage, "_RINGS_LIMIT", 4)
        keys = [f"type-{i}" for i in range(40)]
        memberships = [[f"n{j}" for j in range(i + 1)] for i in range(10)]
        first = [HashRing(nodes) for nodes in memberships]
        # cleared wholesale at the limit, never larger than it
        assert 0 < len(storage._RINGS) <= 4
        assert HashRing(memberships[-1]) is first[-1]  # still interned
        again = HashRing(memberships[0])  # dropped by a clear: rebuilt equal
        assert again is not first[0]
        assert again._points == first[0]._points
        assert again._owners == first[0]._owners
        for ring, nodes in zip(first, memberships):
            oracle = ReferenceRing(nodes)
            assert list(ring._points) == oracle._points
            assert list(ring._owners) == oracle._owners
            assert [ring.route(k) for k in keys] == [
                HashRing(nodes).route(k) for k in keys]

    def test_route_memo_refills_after_crossing_its_bound(self, monkeypatch):
        monkeypatch.setattr(storage, "_ROUTES_LIMIT", 4)
        ring = HashRing(["r0", "r1", "r2"], virtual_nodes=8, seed=5)
        keys = [f"type-{i}" for i in range(10)]
        first = [ring.route(key) for key in keys]
        assert 0 < len(ring._routes) <= 4
        assert [ring.route(key) for key in keys] == first
        for key, owner in zip(keys, first):
            at = bisect_right(ring._points, _unmemoised_hash(key))
            assert owner == ring._owners[at % len(ring._owners)]

    def test_building_a_ring_leaves_the_routing_key_memo_alone(
            self, cold_tables):
        # 64 nodes x 64 points is the memo's whole bound: ring points
        # riding it would wipe every type name's hash per build
        HashRing([f"sp-{i}" for i in range(64)])
        assert storage._STABLE_HASH == {}

    def test_homes_built_from_one_config_share_their_ring(self):
        config = StorageConfig.sharded(shards=4)
        a, b = config.make_backend(), config.make_backend()
        assert a.ring is b.ring
        a.put("only-in-a", 1)
        assert b.get("only-in-a") is None and len(b) == 0  # shards are not


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

    def test_pending_retry_dies_with_its_view_even_if_the_ring_survives(self):
        """A re-election that returns the same super-peer set hands back
        the *same* interned ring, so "no view change since" must be a
        view count, never ``ring is ring_before``: each view's own
        hand-off re-announces, a retry from an older view must not."""
        from repro.glare.model import ActivityType
        from repro.glare.superpeer import _member_wire

        vo, (sp_a, sp_b) = self._build()
        rdm_a, rdm_b = vo.stacks[sp_a].rdm, vo.stacks[sp_b].rdm
        plane_a = rdm_a.directory
        name = self._type_owned_by(plane_a.ring, sp_b, sp_a)
        rdm_b.overlay.view.epoch = 0  # B refuses every note from here on
        rdm_a.atr.add_local_type(ActivityType.from_xml(
            TYPE_XML.format(name=name)))
        vo.sim.run(until=vo.sim.now + 0.5)  # refused: a retry is pending
        assert name not in plane_a._forwarded_claims

        ring = plane_a.ring
        for _ in range(2):  # two views, identical super-peers
            view = rdm_a.overlay.view
            rdm_a.overlay._apply_view({
                "group_id": view.group_id, "super_peer": view.super_peer,
                "members": [_member_wire(m) for m in view.members],
                "super_peers": list(view.super_peers),
                "coordinator": view.coordinator, "epoch": view.epoch + 1,
            }, role=view.role)
        assert plane_a.ring is ring
        vo.sim.run(until=vo.sim.now + 0.5)  # both hand-offs sent, refused
        handoffs = plane_a.shard_handoffs
        # the first view's retry comes due before the hand-offs' own do
        vo.sim.run(until=vo.sim.now + plane_a.SHARD_NOTE_RETRY_DELAY - 0.75)
        assert plane_a.shard_handoffs == handoffs

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
