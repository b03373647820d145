"""Property-based tests: super-peer election invariants at any scale."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vo import build_vo


@given(
    n_sites=st.integers(min_value=1, max_value=12),
    group_size=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_election_invariants(n_sites, group_size, seed):
    vo = build_vo(n_sites=n_sites, seed=seed, group_size=group_size,
                  monitors=False)
    groups = vo.form_overlay()

    # every site is assigned to exactly one group
    assigned = [m for members in groups.values() for m in members]
    assert sorted(assigned) == sorted(vo.site_names)

    import math

    # the coordinator creates ceil(n / group_size) groups
    expected_groups = max(1, math.ceil(n_sites / group_size))
    assert len(groups) == expected_groups

    # exactly one super-peer per group, and it is in its own group
    for super_peer, members in groups.items():
        assert super_peer in members
        roles = [vo.rdm(m).overlay.view.role for m in members]
        assert roles.count("super-peer") == 1

    # the elected super-peers are precisely the top-ranked sites
    ranks = {name: vo.stack(name).site.rank() for name in vo.site_names}
    top = set(sorted(ranks, key=ranks.get, reverse=True)[:expected_groups])
    assert set(groups) == top

    # group sizes are balanced within one member
    sizes = [len(members) for members in groups.values()]
    assert max(sizes) - min(sizes) <= 1

    # every member agrees on the full super-peer list
    for name in vo.site_names:
        view = vo.rdm(name).overlay.view
        assert set(view.super_peers) == set(groups)


@given(
    n_sites=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=10, deadline=None)
def test_single_super_peer_crash_recovers(n_sites, seed):
    """After any one super-peer crash, its survivors converge on a new
    super-peer who is the highest-ranked survivor."""
    vo = build_vo(n_sites=n_sites, seed=seed, group_size=3, monitors=False)
    groups = vo.form_overlay()
    candidates = [(sp, members) for sp, members in groups.items()
                  if len(members) >= 2]
    if not candidates:
        return  # all singleton groups: nothing to recover
    victim, members = candidates[0]
    survivors = [m for m in members if m != victim]
    vo.faults.crash(victim)
    vo.sim.run(until=vo.sim.now + 200)

    new_sps = {vo.rdm(m).overlay.view.super_peer for m in survivors}
    assert len(new_sps) == 1
    new_sp = new_sps.pop()
    assert new_sp in survivors
    ranks = {m: vo.stack(m).site.rank() for m in survivors}
    assert new_sp == max(ranks, key=ranks.get)
