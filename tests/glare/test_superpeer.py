"""Unit tests for the super-peer overlay: election, groups, recovery."""

import pytest

from repro.vo import build_vo


def make_vo(n_sites, group_size=3, seed=61):
    vo = build_vo(n_sites=n_sites, seed=seed, group_size=group_size,
                  monitors=False)
    return vo


class TestElection:
    def test_every_site_assigned(self):
        vo = make_vo(9)
        groups = vo.form_overlay()
        assigned = {m for members in groups.values() for m in members}
        assert assigned == set(vo.site_names)

    def test_group_count_matches_group_size(self):
        vo = make_vo(9, group_size=3)
        vo.form_overlay()
        assert len(vo.super_peers()) == 3

    def test_exactly_one_super_peer_per_group(self):
        vo = make_vo(10, group_size=3)
        groups = vo.form_overlay()
        for super_peer, members in groups.items():
            roles = [vo.rdm(m).overlay.view.role for m in members]
            assert roles.count("super-peer") == 1
            assert vo.rdm(super_peer).overlay.is_super_peer

    def test_super_peers_are_highest_ranked(self):
        """The coordinator elects the top-ranked responders (paper §3.3)."""
        vo = make_vo(8, group_size=4)
        vo.form_overlay()
        ranks = {name: vo.stack(name).site.rank() for name in vo.site_names}
        elected = set(vo.super_peers())
        n_groups = len(elected)
        top_ranked = set(sorted(ranks, key=ranks.get, reverse=True)[:n_groups])
        assert elected == top_ranked

    def test_members_know_the_super_group(self):
        vo = make_vo(9, group_size=3)
        vo.form_overlay()
        super_peers = set(vo.super_peers())
        for name in vo.site_names:
            view = vo.rdm(name).overlay.view
            assert set(view.super_peers) == super_peers

    def test_election_is_deterministic(self):
        groups_a = make_vo(7, seed=5).form_overlay()
        groups_b = make_vo(7, seed=5).form_overlay()
        assert {k: sorted(v) for k, v in groups_a.items()} == {
            k: sorted(v) for k, v in groups_b.items()
        }

    def test_offline_site_excluded_from_election(self):
        vo = make_vo(6, group_size=3)
        vo.faults.crash("agrid04")
        groups = vo.form_overlay()
        assigned = {m for members in groups.values() for m in members}
        assert "agrid04" not in {m for m in assigned if m}

    def test_single_site_vo(self):
        vo = make_vo(1)
        groups = vo.form_overlay()
        assert vo.rdm("agrid00").overlay.is_super_peer
        assert groups == {"agrid00": ["agrid00"]}

    def test_smaller_community_preferred(self):
        """A member acks the coordinator of the smaller community."""
        vo = make_vo(4)
        overlay = vo.rdm("agrid01").overlay
        overlay.handle_election_notice(
            {"coordinator": "big", "community_size": 50, "phase": 1})
        overlay.handle_election_notice(
            {"coordinator": "small", "community_size": 5, "phase": 1})
        ack_big = overlay.handle_election_notice(
            {"coordinator": "big", "community_size": 50, "phase": 2})
        ack_small = overlay.handle_election_notice(
            {"coordinator": "small", "community_size": 5, "phase": 2})
        assert ack_big["ack"] is False
        assert ack_small["ack"] is True
        assert ack_small["rank"] == vo.stack("agrid01").site.rank()


class TestFailureRecovery:
    def failing_group(self, vo, groups):
        victim = next(sp for sp, members in groups.items() if len(members) >= 3)
        survivors = [m for m in groups[victim] if m != victim]
        return victim, survivors

    def test_reelection_after_super_peer_crash(self):
        vo = make_vo(9, group_size=3)
        groups = vo.form_overlay()
        victim, survivors = self.failing_group(vo, groups)
        vo.faults.crash(victim)
        vo.sim.run(until=vo.sim.now + 120)
        new_views = {m: vo.rdm(m).overlay.view for m in survivors}
        new_sp = {view.super_peer for view in new_views.values()}
        assert len(new_sp) == 1
        new_sp = new_sp.pop()
        assert new_sp != victim
        assert new_sp in survivors
        # the winner is the highest-ranked survivor
        ranks = {m: vo.stack(m).site.rank() for m in survivors}
        assert new_sp == max(ranks, key=ranks.get)
        # the epoch advanced so stale assignments are rejected
        assert all(v.epoch > 0 for v in new_views.values())

    def test_other_super_peers_learn_of_takeover(self):
        vo = make_vo(9, group_size=3)
        groups = vo.form_overlay()
        victim, survivors = self.failing_group(vo, groups)
        other_sps = [sp for sp in groups if sp != victim]
        vo.faults.crash(victim)
        vo.sim.run(until=vo.sim.now + 150)
        new_sp = vo.rdm(survivors[0]).overlay.view.super_peer
        for sp in other_sps:
            sp_list = vo.rdm(sp).overlay.view.super_peers
            assert new_sp in sp_list
            assert victim not in sp_list

    def test_discovery_works_after_recovery(self):
        vo = make_vo(9, group_size=3)
        groups = vo.form_overlay()
        victim, survivors = self.failing_group(vo, groups)
        vo.faults.crash(victim)
        vo.sim.run(until=vo.sim.now + 150)
        type_xml = ('<ActivityTypeEntry name="Post" kind="concrete">'
                    "<Domain>x</Domain></ActivityTypeEntry>")
        vo.run_process(vo.client_call(survivors[0], "register_type",
                                      payload={"xml": type_xml}))
        wire = vo.run_process(vo.client_call(survivors[-1], "lookup_type",
                                             payload="Post"))
        assert wire is not None

    def test_peer_crash_does_not_disturb_super_peer(self):
        vo = make_vo(9, group_size=3)
        groups = vo.form_overlay()
        super_peer = next(sp for sp, members in groups.items()
                          if len(members) >= 3)
        plain_member = [m for m in groups[super_peer] if m != super_peer][0]
        vo.faults.crash(plain_member)
        vo.sim.run(until=vo.sim.now + 120)
        assert vo.rdm(super_peer).overlay.is_super_peer
        assert vo.rdm(super_peer).overlay.view.super_peer == super_peer

    def test_reelection_counter(self):
        vo = make_vo(6, group_size=3)
        groups = vo.form_overlay()
        victim, survivors = self.failing_group(vo, groups)
        vo.faults.crash(victim)
        vo.sim.run(until=vo.sim.now + 150)
        new_sp = vo.rdm(survivors[0]).overlay.view.super_peer
        assert vo.rdm(new_sp).overlay.reelections >= 1
