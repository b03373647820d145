#!/usr/bin/env python3
"""Running a workflow written in the AGWL XML dialect.

ASKALON workflows are specified in AGWL [19], composing activity
*types*.  This example parses an AGWL document describing a fan-out
rendering pipeline (split a scene, render four tiles in parallel,
composite the result), schedules it with the load-aware GridARM broker
policy, and enacts it — with GLARE transparently installing JPOVray
and the ImageViewer-based compositor wherever the broker sends them.

Run:  python examples/agwl_workflow.py
"""

from repro.apps import (
    publish_applications,
    register_application,
    register_base_hierarchy,
)
from repro.vo import build_vo
from repro.workflow import EnactmentEngine, Scheduler
from repro.workflow.agwl import parse_agwl, to_agwl

AGWL_DOCUMENT = """
<agwl name="tiled-render">
  <Activity id="split" type="ImageViewer" demand="1.5">
    <Input name="scene.pov" size="400000"/>
    <Output name="tiles.idx" size="4000"/>
  </Activity>
  <Activity id="tile0" type="ImageConversion" demand="6">
    <Output name="tile0.png" size="1000000"/>
  </Activity>
  <Activity id="tile1" type="ImageConversion" demand="6">
    <Output name="tile1.png" size="1000000"/>
  </Activity>
  <Activity id="tile2" type="ImageConversion" demand="6">
    <Output name="tile2.png" size="1000000"/>
  </Activity>
  <Activity id="tile3" type="ImageConversion" demand="6">
    <Output name="tile3.png" size="1000000"/>
  </Activity>
  <Activity id="composite" type="Visualization" demand="2">
    <Output name="final.png" size="4000000"/>
  </Activity>
  <Dependency from="split" to="tile0"/>
  <Dependency from="split" to="tile1"/>
  <Dependency from="split" to="tile2"/>
  <Dependency from="split" to="tile3"/>
  <Dependency from="tile0" to="composite"/>
  <Dependency from="tile1" to="composite"/>
  <Dependency from="tile2" to="composite"/>
  <Dependency from="tile3" to="composite"/>
</agwl>
"""


def main() -> None:
    vo = build_vo(n_sites=5, seed=314)
    publish_applications(vo)
    vo.form_overlay()
    for site in vo.site_names:
        vo.stack(site).site.loadavg.start()
    vo.run_process(register_base_hierarchy(vo, "agrid01"))
    for app in ("Java", "Ant", "JPOVray", "ImageViewer"):
        vo.run_process(register_application(vo, "agrid01", app))

    workflow = parse_agwl(AGWL_DOCUMENT)
    print(f"parsed AGWL workflow {workflow.name!r}: "
          f"{len(workflow.nodes)} activities, {len(workflow.edges)} edges")
    print("round-trip check:", parse_agwl(to_agwl(workflow)).name)

    scheduler = Scheduler(vo, "agrid02", policy="load-aware")
    schedule = vo.run_process(scheduler.map_workflow(workflow))
    print(f"\nschedule (mapped in {schedule.mapping_time:.1f}s, "
          "including on-demand installs):")
    for node_id, mapping in schedule.mappings.items():
        print(f"    {node_id:10s} -> {mapping.deployment.key}")

    engine = EnactmentEngine(vo, "agrid02")
    result = vo.run_process(engine.run(schedule))
    print(f"\nenactment {'succeeded' if result.success else 'FAILED'}: "
          f"makespan {result.makespan:.1f}s, "
          f"{result.bytes_staged / 1e6:.1f} MB staged")
    tiles = [result.runs[f"tile{i}"] for i in range(4)]
    overlap = max(t.started_at for t in tiles) < min(t.finished_at for t in tiles)
    print(f"parallel tiles overlapped in time: {overlap}")


if __name__ == "__main__":
    main()
