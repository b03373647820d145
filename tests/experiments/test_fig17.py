"""Tests for the Fig. 17 sharded-storage experiment."""

from __future__ import annotations

import pytest

from repro.experiments.fig17 import (
    EXPERIMENT,
    Fig17RoutingPoint,
    format_fig17,
    run_routing_point,
    run_storage_point,
)
from repro.experiments.harness import verify
from repro.experiments.workload import plain_type_xml
from repro.glare.storage import StorageConfig
from repro.vo import build_vo


class TestStorageSweep:
    def test_storage_point_digests_and_bounds(self):
        points = run_storage_point(2_000, shard_counts=(4, 16))
        assert [p.backend for p in points] == ["dict", "sharded/4",
                                               "sharded/16"]
        dict_point = points[0]
        for point in points[1:]:
            assert point.lookup_digest == dict_point.lookup_digest
            assert point.digest_matches_dict
            assert point.max_shard <= (2_000 / point.shards) * 1.5
            assert point.per_lookup_ns > 0

    def test_storage_point_is_deterministic(self):
        a = run_storage_point(1_000, shard_counts=(4,))
        b = run_storage_point(1_000, shard_counts=(4,))
        assert [p.lookup_digest for p in a] == [p.lookup_digest for p in b]
        assert a[1].max_shard == b[1].max_shard


class TestRoutingSweep:
    @pytest.fixture(scope="class")
    def pair(self):
        base = run_routing_point(4, 200, routed=False, seed=23)
        routed = run_routing_point(4, 200, routed=True, seed=23)
        return base, routed

    def test_routed_matches_broadcast_results(self, pair):
        base, routed = pair
        assert base.result_digest == routed.result_digest
        assert base.lookups == routed.lookups > 0

    def test_routed_cuts_message_cost(self, pair):
        base, routed = pair
        assert routed.messages_per_lookup < base.messages_per_lookup
        assert routed.shard_route_hits > 0
        assert routed.shard_handoffs > 0

    def test_broadcast_series_has_no_shard_traffic(self, pair):
        base, _ = pair
        assert base.shard_route_hits == 0
        assert base.shard_handoffs == 0

    def test_fig17_digest_and_format(self, pair):
        base, routed = pair
        storage = run_storage_point(1_000, shard_counts=(4,))
        digest = verify(EXPERIMENT, {
            "fig17:storage:1000": storage,
            "fig17:routing:4g:200:bcast": base,
            "fig17:routing:4g:200:routed": routed,
        })
        assert len(digest) == 64
        text = format_fig17(storage, [base, routed])
        assert "Fig. 17a" in text and "Fig. 17b" in text
        assert "results ==" in text


class TestShardedBackendInVO:
    def test_sharded_home_without_routing_is_invisible(self):
        """Sharded resource homes alone (no directory routing) must
        produce the identical resolution protocol and results."""
        import hashlib

        def run(storage):
            vo = build_vo(n_sites=8, seed=31, group_size=4,
                          monitors=False, lifecycle=False, storage=storage)
            vo.form_overlay()
            names = vo.site_names
            vo.run_process(vo.client_call(
                names[-1], "register_type",
                payload={"xml": plain_type_xml("ShardApp", "scale")},
            ))
            records = []

            def resolve(site):
                try:
                    wire = yield from vo.client_call(
                        site, "resolve_type", payload={"type": "ShardApp"})
                    records.append(f"{site}|{wire['xml']}")
                except Exception as error:
                    records.append(f"{site}|error:{type(error).__name__}")

            for site in names[:3]:
                vo.run_process(resolve(site))
            digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
            return digest, vo.network.total_messages

        dict_digest, dict_msgs = run(StorageConfig())
        shard_digest, shard_msgs = run(StorageConfig.sharded(shards=4))
        assert dict_digest == shard_digest
        assert dict_msgs == shard_msgs
