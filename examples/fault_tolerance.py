#!/usr/bin/env python3
"""Self-management demo: super-peer failure and re-election (paper §3.3).

A 9-site VO forms three super-peer groups.  We then crash one
super-peer.  Its group members' probes notice the silence; the highest
ranked survivor verifies the failure, polls the remaining members, and
takes over on a simple-majority acknowledgment — after which discovery
requests from that group keep working, demonstrating that "if some
sites or services fail, the rest of the GLARE system continues
working".

Run:  python examples/fault_tolerance.py
"""

from repro.vo import build_vo

TYPE_XML = (
    '<ActivityTypeEntry name="SurvivorApp" kind="concrete">'
    "<Domain>demo</Domain></ActivityTypeEntry>"
)


def main() -> None:
    vo = build_vo(n_sites=9, seed=99, group_size=3, monitors=False)
    groups = vo.form_overlay()
    print("Initial overlay:")
    for super_peer, members in sorted(groups.items()):
        print(f"  group of {super_peer}: {sorted(members)}")

    # Pick a super-peer whose group has members besides itself.
    victim = next(sp for sp, members in groups.items() if len(members) > 1)
    group_members = [m for m in groups[victim] if m != victim]
    print(f"\nCrashing super-peer {victim!r} "
          f"(group members: {group_members})")
    vo.faults.crash(victim)

    # Members probe their super-peer periodically; give the protocol
    # time to detect, verify by majority, and re-elect.
    vo.sim.run(until=vo.sim.now + 120.0)

    survivor_views = {
        name: vo.stack(name).rdm.overlay.view for name in group_members
    }
    new_super_peers = {view.super_peer for view in survivor_views.values()}
    print("\nAfter failure detection and re-election:")
    for name, view in sorted(survivor_views.items()):
        print(f"  {name}: role={view.role:10s} super_peer={view.super_peer} "
              f"epoch={view.epoch}")
    assert victim not in new_super_peers, "victim must have been replaced"

    # Re-elections happened via rank order: the highest-ranked survivor
    # took over.
    ranks = {
        name: vo.stack(name).site.rank() for name in group_members
    }
    expected = max(ranks, key=ranks.get)
    print(f"\nHighest-ranked survivor: {expected} "
          f"(rank {ranks[expected]:x})")

    # The surviving group still answers discovery requests: register a
    # type on one member and resolve it from another.
    provider, client = group_members[0], group_members[-1]
    vo.run_process(vo.client_call(provider, "register_type",
                                  payload={"xml": TYPE_XML}))

    def resolve():
        wire = yield from vo.client_call(client, "lookup_type",
                                         payload="SurvivorApp")
        return wire

    wire = vo.run_process(resolve())
    print(f"\n{client} resolved type 'SurvivorApp' registered on {provider}: "
          f"{'OK' if wire is not None else 'FAILED'}")

    # Bring the old super-peer back: it rejoins as a plain site; the
    # community index will fold it into the next election round.
    vo.faults.restart(victim)
    print(f"{victim} recovered (will rejoin at the next election round)")


if __name__ == "__main__":
    main()
