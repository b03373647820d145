"""Property-based tests: deploy-file ordering and lease invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.glare.deployfile import BuildRecipe, BuildStep
from repro.glare.errors import InvalidTypeDescription, LeaseError, NotAuthorized
from repro.gridarm import LeaseKind, ReservationService
from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator


@st.composite
def recipes(draw):
    """A random acyclic recipe: steps depend only on earlier steps."""
    n = draw(st.integers(min_value=1, max_value=12))
    steps = []
    for index in range(n):
        pool = [s.name for s in steps]
        depends = draw(st.lists(st.sampled_from(pool), max_size=3,
                                unique=True)) if pool else []
        steps.append(BuildStep(name=f"s{index}", task="make", depends=depends))
    recipe = BuildRecipe(name="r", steps=steps)
    return recipe


@given(recipes())
@settings(max_examples=150)
def test_ordered_steps_is_topological(recipe):
    ordered = recipe.ordered_steps()
    assert len(ordered) == len(recipe.steps)
    position = {step.name: index for index, step in enumerate(ordered)}
    for step in recipe.steps:
        for dependency in step.depends:
            assert position[dependency] < position[step.name]


@given(recipes())
@settings(max_examples=100)
def test_ordering_is_deterministic(recipe):
    first = [s.name for s in recipe.ordered_steps()]
    second = [s.name for s in recipe.ordered_steps()]
    assert first == second


def test_direct_construction_normalises_and_validates():
    """Lists in, tuples kept; the Kahn pass runs when the recipe is built."""
    a = BuildStep(name="a", task="tar xvfz", depends=["b"], env={"K": "v"},
                  properties=[["argument", "x.tgz"]])
    assert (a.depends, a.properties, a.kind) == (("b",), (("argument", "x.tgz"),), "expand")
    assert a.env == {"K": "v"} and a.props("argument") == ["x.tgz"]
    b = BuildStep(name="b", task="make")
    recipe = BuildRecipe(name="r", steps=[a, b])
    assert recipe.steps == (a, b) and recipe.ordered_steps() == (b, a)
    assert recipe.collected_env() == {"K": "v"}
    with pytest.raises(InvalidTypeDescription) as dangling:
        BuildRecipe(name="r", steps=[a])
    assert str(dangling.value) == "step 'a' depends on unknown step 'b'"
    with pytest.raises(InvalidTypeDescription) as cyclic:
        BuildRecipe(name="r", steps=[a, BuildStep(name="b", task="make", depends=["a"])])
    assert str(cyclic.value) == "deploy-file 'r' has a dependency cycle"


# --- lease concurrency invariant --------------------------------------------

@st.composite
def lease_scripts(draw):
    """Random authorize/finish interleavings for one shared lease."""
    max_concurrent = draw(st.integers(min_value=1, max_value=4))
    events = draw(st.lists(st.sampled_from(["auth", "finish"]),
                           min_size=1, max_size=30))
    return max_concurrent, events


@given(lease_scripts())
@settings(max_examples=100)
def test_shared_lease_never_exceeds_limit(script):
    max_concurrent, events = script
    sim = Simulator()
    topo = Topology()
    topo.add_site("h")
    net = Network(sim, topo)
    net.add_node("h")
    service = ReservationService(net, "h")
    ticket = service.make_lease("d", "user", 0.0, 1e9,
                                kind=LeaseKind.SHARED,
                                max_concurrent=max_concurrent)
    lease = service.leases["d"][0]
    active = 0

    def driver():
        nonlocal active
        for event in events:
            if event == "auth":
                try:
                    yield from service.authorize_instantiation(
                        "d", ticket.ticket_id, "user")
                    active += 1
                except NotAuthorized:
                    pass
            elif active > 0:
                service.instantiation_finished("d", ticket.ticket_id)
                active -= 1
            assert 0 <= lease.active_instances <= max_concurrent
            assert lease.active_instances == active

    proc = sim.process(driver())
    sim.run(until=proc)
