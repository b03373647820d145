"""Workflow model, scheduler, and enactment tests (paper Figs. 1/4)."""

import pytest

from repro.apps import publish_applications, register_application, register_base_hierarchy
from repro.vo import build_vo
from repro.workflow import (
    ActivityNode,
    DataItem,
    EnactmentEngine,
    Scheduler,
    Workflow,
    WorkflowError,
)
from repro.workflow.enactment import run_workflow


class TestWorkflowModel:
    def test_topological_order(self):
        wf = Workflow("t")
        for node_id in ("a", "b", "c"):
            wf.add(ActivityNode(node_id, "T"))
        wf.connect("a", "b")
        wf.connect("b", "c")
        assert [n.node_id for n in wf.topological_order()] == ["a", "b", "c"]

    def test_cycle_detection(self):
        wf = Workflow("t")
        wf.add(ActivityNode("a", "T"))
        wf.add(ActivityNode("b", "T"))
        wf.connect("a", "b")
        wf.connect("b", "a")
        with pytest.raises(WorkflowError, match="cycle"):
            wf.validate()

    def test_duplicate_node_rejected(self):
        wf = Workflow("t")
        wf.add(ActivityNode("a", "T"))
        with pytest.raises(WorkflowError):
            wf.add(ActivityNode("a", "T"))

    def test_unknown_edge_endpoint(self):
        wf = Workflow("t")
        wf.add(ActivityNode("a", "T"))
        with pytest.raises(WorkflowError):
            wf.connect("a", "ghost")

    def test_self_edge_rejected(self):
        wf = Workflow("t")
        wf.add(ActivityNode("a", "T"))
        with pytest.raises(WorkflowError):
            wf.connect("a", "a")

    def test_povray_example_shape(self):
        wf = Workflow.povray_example()
        assert wf.activity_types() == {"ImageConversion", "Visualization"}
        assert wf.predecessors("visualize") == ["convert"]


@pytest.fixture(scope="module")
def imaging_vo():
    """A VO with the imaging stack registered and overlay formed."""
    vo = build_vo(n_sites=4, seed=21, monitors=False)
    publish_applications(vo)
    vo.form_overlay()
    vo.run_process(register_base_hierarchy(vo, "agrid01"))
    for app in ("Java", "Ant", "JPOVray", "ImageViewer"):
        vo.run_process(register_application(vo, "agrid01", app))
    return vo


class TestSchedulerAndEnactment:
    def test_map_povray_workflow(self, imaging_vo):
        vo = imaging_vo
        wf = Workflow.povray_example()
        scheduler = Scheduler(vo, "agrid02")
        schedule = vo.run_process(scheduler.map_workflow(wf))
        assert set(schedule.mappings) == {"convert", "visualize"}
        assert schedule.mappings["convert"].deployment.type_name == "JPOVray"
        assert schedule.mappings["visualize"].deployment.type_name == "ImageViewer"
        assert schedule.mapping_time > 0

    def test_enact_workflow_end_to_end(self, imaging_vo):
        vo = imaging_vo
        wf = Workflow.povray_example()
        result, schedule = vo.run_process(run_workflow(vo, wf, "agrid03"))
        assert result.success, result.error
        assert set(result.runs) == {"convert", "visualize"}
        # convert ran before visualize
        assert (
            result.runs["convert"].finished_at
            <= result.runs["visualize"].started_at
        )
        assert result.makespan > 0

    def test_parallel_branches_overlap(self, imaging_vo):
        vo = imaging_vo
        wf = Workflow("fan")
        wf.add(ActivityNode("prep", "JPOVray", demand=1.0))
        for i in range(3):
            wf.add(ActivityNode(f"render{i}", "JPOVray", demand=6.0))
            wf.connect("prep", f"render{i}")
        result, _ = vo.run_process(run_workflow(vo, wf, "agrid02"))
        assert result.success
        starts = [result.runs[f"render{i}"].started_at for i in range(3)]
        ends = [result.runs[f"render{i}"].finished_at for i in range(3)]
        # the three renders overlap in time rather than running serially
        assert max(starts) < min(ends)

    def test_enactment_retries_on_site_failure(self, imaging_vo):
        vo = imaging_vo
        wf = Workflow("retry")
        wf.add(ActivityNode("render", "JPOVray", demand=2.0))
        scheduler = Scheduler(vo, "agrid02")
        schedule = vo.run_process(scheduler.map_workflow(wf))
        victim = schedule.site_of("render")
        vo.faults.crash(victim)
        engine = EnactmentEngine(vo, "agrid02", max_retries=2)
        result = vo.run_process(engine.run(schedule))
        vo.faults.restart(victim)
        assert result.success, result.error
        assert result.runs["render"].site != victim
        assert result.retries >= 1

    def test_a_bug_in_an_activity_propagates(self, imaging_vo, monkeypatch):
        """A failed node is a GLARE, transport or workflow error; a bug
        is raised, not recorded as the node's failure."""
        vo = imaging_vo
        wf = Workflow("bug")
        wf.add(ActivityNode("render", "JPOVray", demand=1.0))
        schedule = vo.run_process(Scheduler(vo, "agrid02").map_workflow(wf))

        def broken(*args):
            raise TypeError("a bug")
            yield

        monkeypatch.setattr(EnactmentEngine, "_run_node", broken)
        with pytest.raises(TypeError, match="a bug"):
            vo.run_process(EnactmentEngine(vo, "agrid02").run(schedule))

    def test_a_bug_while_remapping_propagates(self, imaging_vo, monkeypatch):
        vo = imaging_vo

        def broken(*args, **kwargs):
            raise TypeError("a bug")
            yield

        monkeypatch.setattr(vo, "client_call", broken)
        engine = EnactmentEngine(vo, "agrid02")
        with pytest.raises(TypeError, match="a bug"):
            vo.run_process(engine._remap(ActivityNode("x", "JPOVray"), "agrid01"))

    def test_unmappable_workflow_fails_cleanly(self, imaging_vo):
        vo = imaging_vo
        wf = Workflow("bad")
        wf.add(ActivityNode("x", "NoSuchType"))
        scheduler = Scheduler(vo, "agrid02")
        with pytest.raises(Exception):
            vo.run_process(scheduler.map_workflow(wf))
