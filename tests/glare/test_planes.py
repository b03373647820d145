"""One switch per plane, one module per plane.

(a) The three plane configs are frozen values with exactly the fields
below, checked when built; every deleted field name is a ``TypeError``.
(b) A plane is an object the RDM frontend carries iff it is switched
on: a default VO has no directory plane, no hooks installed, and
answers the plane's operations ``UnknownOperation``.
"""

import dataclasses

import pytest

from repro.glare.provisioning import ProvisioningConfig
from repro.glare.resolution import DirectoryPlane, ResolutionConfig
from repro.glare.storage import StorageConfig
from repro.net.service import UnknownOperation
from repro.vo import VOConfig, build_vo

FIELDS = {
    ResolutionConfig: ["scaled"],
    ProvisioningConfig: ["scaled", "rollout_fanout"],
    StorageConfig: ["backend", "shards", "routing"],
}

DELETED = {
    ResolutionConfig: ["singleflight", "batch_revalidation", "digests",
                       "negative_ttl", "monitor_jitter"],
    ProvisioningConfig: ["parallel_probe", "probe_fanout", "site_info_ttl",
                         "parallel_dependencies", "replica_transfers",
                         "transfer_singleflight"],
    StorageConfig: ["virtual_nodes", "seed"],
}


class TestConfigSurface:
    @pytest.mark.parametrize("config", FIELDS, ids=lambda c: c.__name__)
    def test_fields_are_exactly_the_switches(self, config):
        assert [f.name for f in dataclasses.fields(config)] == FIELDS[config]

    def test_settable_values_are_counted(self):
        assert sum(len(names) for names in FIELDS.values()) == 6
        assert len(dataclasses.fields(VOConfig)) == 23

    @pytest.mark.parametrize(
        "config, name",
        [(config, name) for config, names in DELETED.items() for name in names],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_deleted_names_are_not_accepted(self, config, name):
        with pytest.raises(TypeError):
            config(**{name: 1})

    def test_deleted_factory_parameters_are_not_accepted(self):
        with pytest.raises(TypeError):
            ResolutionConfig.all_on(negative_ttl=30.0)
        with pytest.raises(TypeError):
            StorageConfig.sharded(virtual_nodes=8)
        with pytest.raises(TypeError):
            StorageConfig.sharded(seed=1)

    def test_the_spellings_in_use_build(self):
        assert ResolutionConfig.all_on() == ResolutionConfig(scaled=True)
        assert ProvisioningConfig.all_on() == ProvisioningConfig(
            scaled=True, rollout_fanout=8)
        assert ProvisioningConfig.all_on(rollout_fanout=8).rollout_fanout == 8
        assert StorageConfig.sharded(shards=4, routing=True) == StorageConfig(
            backend="sharded", shards=4, routing=True)

    @pytest.mark.parametrize("config", FIELDS, ids=lambda c: c.__name__)
    def test_configs_are_frozen_values_with_one_shared_default(self, config):
        assert config.PAPER == config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config(), FIELDS[config][0], True)

    def test_values_are_checked_when_built(self):
        for fanout in (0, -1):
            with pytest.raises(ValueError, match="rollout_fanout"):
                ProvisioningConfig(rollout_fanout=fanout)
            with pytest.raises(ValueError, match="rollout_fanout"):
                ProvisioningConfig.all_on(rollout_fanout=fanout)
        with pytest.raises(ValueError, match="shards"):
            StorageConfig.sharded(shards=0)
        with pytest.raises(ValueError, match="backend"):
            StorageConfig(backend="mongo")


def make_vo(**kwargs):
    vo = build_vo(n_sites=4, seed=13, monitors=False, lifecycle=False, **kwargs)
    vo.form_overlay()
    return vo


def call(vo, site, method, payload):
    return vo.run_process(vo.client_call(site, method, payload=payload))


DIRECTORY_OPS = [
    ("digest_note", {"site": "agrid01", "claims": [], "epoch": 1, "full": True}),
    ("shard_note", {"site": "agrid01", "claims": []}),
    ("shard_lookup", {"type": "NoSuchType"}),
]


class TestPlaneAttachment:
    def test_a_default_vo_carries_no_directory_plane(self):
        vo = make_vo()
        for name in vo.site_names:
            rdm = vo.rdm(name)
            assert rdm.directory is None
            assert rdm.overlay.on_view_applied is None
            assert rdm.atr.on_local_registration is None
            assert rdm.adr.on_local_registration is None
            for attr in ("digest", "shard_ring", "shard_route_hits",
                         "shard_fallbacks", "shard_handoffs",
                         "_forwarded_claims", "desired_state"):
                assert not hasattr(rdm, attr)
        for method, payload in DIRECTORY_OPS:
            with pytest.raises(UnknownOperation):
                call(vo, "agrid00", method, payload)

    @pytest.mark.parametrize("knobs", [
        {"resolution": ResolutionConfig.all_on()},
        {"storage": StorageConfig.sharded(shards=4, routing=True)},
    ], ids=["scaled", "routed"])
    def test_a_scaled_or_routed_vo_answers_the_directory_ops(self, knobs):
        vo = make_vo(**knobs)
        for name in vo.site_names:
            rdm = vo.rdm(name)
            assert isinstance(rdm.directory, DirectoryPlane)
            assert rdm.overlay.on_view_applied is not None
            assert rdm.atr.on_local_registration is not None
        sp = vo.super_peers()[0]
        assert call(vo, sp, "digest_note", DIRECTORY_OPS[0][1]) == {
            "accepted": True}
        assert call(vo, sp, "shard_note", DIRECTORY_OPS[1][1]) == {
            "accepted": "storage" in knobs}
        assert call(vo, sp, "shard_lookup", DIRECTORY_OPS[2][1]) == {
            "types": [], "deployments": []}

    def test_always_on_planes_answer_on_a_default_vo(self):
        """The overlay, the §6 extensions and the orchestration site
        agent are attached on every RDM, whatever the switches say."""
        vo = make_vo()
        rdm = vo.rdm("agrid01")
        assert vo.stack("agrid01").agent.desired_state is None
        for op in ("election_notice", "group_assign", "peer_assign",
                   "sp_missing", "sp_verify", "sp_update", "undeploy",
                   "undeploy_type", "generate_wrapper", "semantic_lookup",
                   "report_observed", "apply_spec", "set_deployment_lifetime"):
            assert callable(getattr(rdm, f"op_{op}"))
        assert rdm.CONTROL_OPS == {
            "report_observed", "apply_spec", "set_deployment_lifetime"}
        assert call(vo, "agrid01", "semantic_lookup", {"function": "x"}) == []
        assert call(vo, "agrid01", "set_deployment_lifetime",
                    {"key": "agrid01:none", "at": 1.0})["ok"] is False
        assert call(vo, "agrid01", "apply_spec",
                    {"revision": 1, "specs": []}) == {
            "accepted": True, "revision": 1}
        assert vo.stack("agrid01").agent.desired_state.revision == 1
