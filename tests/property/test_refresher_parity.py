"""Property: batched and per-entry cache revalidation are one routine.

The scaled resolution plane only changes how the source LUTs reach :meth:`CacheRefresher._revalidate` (one ``get_lut`` per
entry, or one ``get_lut_batch`` per source).  So under any schedule of
source updates, removals, offline windows and refresher ticks, a serial
and a batched refresher must leave the observer's caches in the same
end state and have refreshed and discarded the same number of entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.glare.monitors import CacheRefresher
from repro.glare.registry import ADR_SERVICE, ATR_SERVICE
from repro.glare.resolution import ResolutionConfig
from repro.invariants import audit
from repro.vo import build_vo

from ..glare.test_resolution_scale import TYPE_XML, register_type_and_deployment

OBSERVER = "agrid00"
SOURCES = ("agrid01", "agrid02", "agrid03")
MAX_ENTRIES = 5
#: schedule steps happen at absolute multiples of STEP, far enough apart
#: that either refresher's tick has finished before the next step
STEP = 500.0

entry = st.integers(min_value=0, max_value=MAX_ENTRIES - 1)
step = st.one_of(
    st.tuples(st.sampled_from(["touch", "reregister", "remove"]), entry),
    st.tuples(st.sampled_from(["offline", "online"]), st.sampled_from(SOURCES)),
    st.just(("tick", None)),
)


def run_schedule(batched, entries, schedule):
    vo = build_vo(
        n_sites=1 + len(SOURCES), seed=23, group_size=2 + len(SOURCES),
        monitors=False, lifecycle=False,
        resolution=ResolutionConfig(scaled=batched),
    )
    vo.form_overlay()
    home = {index: SOURCES[index % len(SOURCES)] for index in range(entries)}
    keys = {}
    for index, site in home.items():
        keys[index] = register_type_and_deployment(vo, site, f"P{index}").key
        vo.run_process(vo.client_call(
            OBSERVER, "get_deployments",
            payload={"type": f"P{index}", "auto_deploy": False}))
    observer = vo.stack(OBSERVER)
    assert sorted(observer.adr.cache_sources) == sorted(keys.values())
    refresher = CacheRefresher(vo.rdm(OBSERVER))
    assert vo.sim.now < STEP

    removed = set()
    for number, (action, target) in enumerate(list(schedule) + [("tick", None)]):
        vo.sim.run(until=(number + 1) * STEP)
        if action == "tick":
            vo.run_process(refresher.tick())
        elif action in ("offline", "online"):
            if action == "offline":
                vo.faults.crash(target)
            else:
                vo.faults.restart(target)
        elif (target < entries and target not in removed
              and vo.stack(home[target]).site.online):
            site = home[target]
            if action == "touch":
                vo.run_process(vo.client_call(
                    site, "update_status", service=ADR_SERVICE,
                    payload={"key": keys[target], "status": "failed"}))
            elif action == "reregister":
                vo.run_process(vo.client_call(
                    site, "register_type",
                    payload={"xml": TYPE_XML.replace("ScaleApp", f"P{target}")}))
            else:
                removed.add(target)
                vo.run_process(vo.client_call(
                    site, "remove_deployment", service=ADR_SERVICE,
                    payload=keys[target]))
                vo.run_process(vo.client_call(
                    site, "remove_type", service=ATR_SERVICE,
                    payload=f"P{target}"))

    assert audit(vo.network) == []
    atr, adr = observer.atr, observer.adr
    return {
        "type LUTs": {name: epr.last_update_time
                      for name, epr in sorted(atr.cache_sources.items())},
        # a refetched deployment's EPR is stamped when it is fetched,
        # which is a few RPCs apart in the two modes: compare the step
        # the LUT falls in, and the refetched content itself
        "deployment LUT steps": {key: epr.last_update_time // STEP
                                 for key, epr in sorted(adr.cache_sources.items())},
        "deployments": {key: d.wire_xml()
                        for key, d in sorted(adr.cached_deployments.items())},
        "refreshed": refresher.refreshed,
        "discarded": refresher.discarded,
    }


@given(entries=st.integers(min_value=1, max_value=MAX_ENTRIES),
       schedule=st.lists(step, max_size=10))
@settings(max_examples=25, deadline=None)
def test_serial_and_batched_refreshers_reach_the_same_state(entries, schedule):
    assert (run_schedule(False, entries, schedule)
            == run_schedule(True, entries, schedule))
