"""Planner unit tests: the plan is a pure function of spec + gauges,
respects min/max bounds and placement constraints, and replaces a
replica whose site is missing from the observation."""

import pytest

from repro.orchestrate.planner import Observed, Planner, SiteObservation
from repro.orchestrate.spec import DeploymentSpec
from repro.site.description import SiteDescription


def obs(site, utilization=0.1, load=0.0, run_queue=0, shed=0,
        description=None):
    return SiteObservation(site=site, utilization=utilization, load=load,
                           run_queue=run_queue, shed=shed,
                           description=description)


def observed(sites, **placements):
    return Observed(sites=tuple(sites),
                    placements={t: tuple(s) for t, s in placements.items()})


SPEC = DeploymentSpec(type_name="Hot", min_replicas=1, max_replicas=3,
                      target_utilization=0.6)


class TestPurity:
    def test_same_inputs_same_plan(self):
        planner = Planner()
        world = observed([obs("a", 0.9), obs("b", 0.2), obs("c", 0.4)],
                         Hot=["a"])
        first = planner.plan([SPEC], world)
        second = planner.plan([SPEC], world)
        assert first == second

    def test_inputs_not_mutated(self):
        planner = Planner()
        sites = [obs("a", 0.9), obs("b", 0.2)]
        world = observed(sites, Hot=["a"])
        before = (world.sites, dict(world.placements))
        planner.plan([SPEC], world)
        assert (world.sites, dict(world.placements)) == before

    def test_plan_is_independent_of_observation_order(self):
        planner = Planner()
        sites = [obs("a", 0.9), obs("b", 0.2), obs("c", 0.4)]
        forward = planner.plan([SPEC], observed(sites, Hot=["a"]))
        backward = planner.plan([SPEC], observed(sites[::-1], Hot=["a"]))
        assert forward == backward


class TestBounds:
    def test_bootstrap_to_min_replicas(self):
        planner = Planner()
        spec = DeploymentSpec(type_name="Hot", min_replicas=2, max_replicas=4)
        plan = planner.plan([spec], observed([obs("a"), obs("b"), obs("c")]))
        tp = plan.for_type("Hot")
        assert tp.reason == "bootstrap"
        assert tp.desired == 2
        assert len(tp.add) == 2

    def test_scale_out_never_exceeds_max(self):
        planner = Planner()
        spec = DeploymentSpec(type_name="Hot", min_replicas=1, max_replicas=2,
                              target_utilization=0.5)
        world = observed([obs("a", 0.95), obs("b", 0.95), obs("c", 0.1)],
                         Hot=["a", "b"])
        tp = planner.plan([spec], world).for_type("Hot")
        assert tp.desired == 2  # clamped: pressure high but already at max
        assert tp.add == ()

    def test_scale_in_never_goes_below_min(self):
        planner = Planner()
        world = observed([obs("a", 0.01), obs("b", 0.01)], Hot=["a"])
        tp = planner.plan([SPEC], world).for_type("Hot")
        assert tp.desired == 1
        assert tp.remove == ()

    def test_shed_forces_scale_out_below_threshold(self):
        planner = Planner()
        world = observed([obs("a", 0.2, shed=17), obs("b", 0.1)], Hot=["a"])
        tp = planner.plan([SPEC], world).for_type("Hot")
        assert tp.reason == "scale-out"
        assert tp.add == ("b",)

    def test_scale_out_picks_least_loaded_site(self):
        planner = Planner()
        world = observed(
            [obs("a", 0.9), obs("b", 0.5), obs("c", 0.2)], Hot=["a"]
        )
        tp = planner.plan([SPEC], world).for_type("Hot")
        assert tp.reason == "scale-out"
        assert tp.add == ("c",)

    def test_scale_in_drains_lexicographic_tail(self):
        planner = Planner()
        world = observed(
            [obs("a", 0.05), obs("b", 0.05), obs("c", 0.05)],
            Hot=["a", "b", "c"],
        )
        tp = planner.plan([SPEC], world).for_type("Hot")
        assert tp.reason == "scale-in"
        assert tp.remove == ("c",)
        assert tp.placements == ("a", "b")


class TestConstraintsAndHealth:
    def test_placement_constraints_filter_candidates(self):
        planner = Planner()
        linux = SiteDescription(name="b", os="Linux")
        windows = SiteDescription(name="c", os="Windows")
        spec = DeploymentSpec(type_name="Hot", min_replicas=2, max_replicas=3,
                              constraints=(("os", "Linux"),))
        world = observed([obs("a", description=None),
                         obs("b", description=linux),
                         obs("c", description=windows)])
        tp = planner.plan([spec], world).for_type("Hot")
        # no description fails closed; only the Linux site qualifies
        assert tp.add == ("b",)

    def test_avoid_sites_excluded(self):
        planner = Planner()
        spec = DeploymentSpec(type_name="Hot", avoid_sites=("a",))
        tp = planner.plan([spec], observed([obs("a"), obs("b")]))
        assert tp.for_type("Hot").add == ("b",)

    def test_site_missing_from_observation_is_replaced(self):
        # "a" holds the only replica but did not answer its probe: it
        # loses its placement (nothing to drain there) and "b" takes over
        world = observed([obs("b", 0.3), obs("c", 0.5)], Hot=["a"])
        tp = Planner().plan([SPEC], world).for_type("Hot")
        assert tp.placements == ("b",)
        assert tp.add == ("b",)
        assert tp.remove == ()
        assert tp.reason == "bootstrap"

    def test_route_around_never_plans_below_min_replicas(self):
        spec = DeploymentSpec("T", min_replicas=1, max_replicas=3,
                              avoid_sites=("a",))
        tp = Planner().plan(
            [spec], observed([obs("a", 0.3)], T=["a"])).for_type("T")
        # no eligible replacement: the only replica stays put
        assert tp.placements == ("a",)
        assert tp.remove == ()
        assert tp.reason == "steady"

    def test_route_around_drains_once_a_replacement_is_added(self):
        spec = DeploymentSpec("T", min_replicas=1, max_replicas=3,
                              avoid_sites=("a",))
        world = observed([obs("a", 0.3), obs("b", 0.3)], T=["a"])
        tp = Planner().plan([spec], world).for_type("T")
        assert tp.placements == ("b",)
        assert tp.add == ("b",)
        assert tp.remove == ("a",)
        assert tp.reason == "route-around"

    def test_route_around_keeps_only_what_min_replicas_needs(self):
        spec = DeploymentSpec("T", min_replicas=2, max_replicas=3,
                              avoid_sites=("a", "b"))
        world = observed([obs("a", 0.3), obs("b", 0.3), obs("c", 0.3)],
                         T=["a", "b"])
        tp = Planner().plan([spec], world).for_type("T")
        # "c" replaces one; the lowest-named ineligible replica stays
        assert tp.placements == ("a", "c")
        assert tp.remove == ("b",)

    def test_no_eligible_site_yields_no_actions(self):
        planner = Planner()
        spec = DeploymentSpec(type_name="Hot", avoid_sites=("a", "b"))
        tp = planner.plan([spec], observed([obs("a"), obs("b")]))
        plan = tp.for_type("Hot")
        assert plan.add == () and plan.remove == ()
        assert tp.converged


class TestPlanShape:
    def test_types_sorted_and_converged_flag(self):
        planner = Planner()
        specs = [DeploymentSpec(type_name="Zeta"),
                 DeploymentSpec(type_name="Alpha")]
        world = observed([obs("a", 0.3)], Zeta=["a"], Alpha=["a"])
        plan = planner.plan(specs, world)
        assert [t.type_name for t in plan.types] == ["Alpha", "Zeta"]
        assert plan.converged
        assert plan.actions == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DeploymentSpec(type_name="Hot", min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            DeploymentSpec(type_name="Hot", target_utilization=0.0)
