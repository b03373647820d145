"""Unit tests for the activity-type hierarchy (paper Fig. 2)."""

import pytest

from repro.glare.errors import CycleInHierarchy, TypeNotFound
from repro.glare.hierarchy import TypeHierarchy
from repro.glare.model import ActivityFunction, ActivityType, InstallationSpec, TypeKind


def abstract(name, bases=(), functions=()):
    return ActivityType(
        name=name, kind=TypeKind.ABSTRACT, base_types=list(bases),
        functions=[ActivityFunction(f) for f in functions],
    )


def concrete(name, bases=()):
    return ActivityType(
        name=name, kind=TypeKind.CONCRETE, base_types=list(bases),
        installation=InstallationSpec(deploy_file_url=f"http://x/{name}.build"),
    )


def inherited_functions(hierarchy, name):
    """Function names of ``name`` plus everything inherited, first
    occurrence kept."""
    at = hierarchy.require(name)
    names = [f.name for f in at.functions]
    for ancestor in hierarchy.ancestors(name):
        node = hierarchy.get(ancestor)
        if node is not None:
            names.extend(f.name for f in node.functions)
    return list(dict.fromkeys(names))


@pytest.fixture()
def paper_hierarchy():
    """The Fig. 2 hierarchy: Imaging -> POVray -> JPOVray (+multiple bases)."""
    h = TypeHierarchy()
    h.add(abstract("Imaging", functions=["export"]))
    h.add(abstract("POVray", bases=["Imaging"], functions=["render"]))
    h.add(concrete("JPOVray", bases=["POVray", "Imaging"]))
    return h


class TestStructure:
    def test_ancestors(self, paper_hierarchy):
        assert set(paper_hierarchy.ancestors("JPOVray")) == {"POVray", "Imaging"}
        assert paper_hierarchy.ancestors("Imaging") == []

    def test_descendants(self, paper_hierarchy):
        assert paper_hierarchy.descendants("Imaging") == ["JPOVray", "POVray"]
        assert paper_hierarchy.descendants("JPOVray") == []

    def test_concrete_types_for_abstract(self, paper_hierarchy):
        found = paper_hierarchy.concrete_types_for("Imaging")
        assert [t.name for t in found] == ["JPOVray"]

    def test_concrete_types_for_concrete_is_self(self, paper_hierarchy):
        found = paper_hierarchy.concrete_types_for("JPOVray")
        assert [t.name for t in found] == ["JPOVray"]

    def test_concrete_types_for_unknown_is_empty(self, paper_hierarchy):
        assert paper_hierarchy.concrete_types_for("Nothing") == []

    def test_inherited_functions(self, paper_hierarchy):
        names = inherited_functions(paper_hierarchy, "JPOVray")
        assert set(names) == {"render", "export"}

    def test_roots(self, paper_hierarchy):
        assert paper_hierarchy.roots() == ["Imaging"]

    def test_dangling_base_tolerated(self):
        h = TypeHierarchy()
        h.add(concrete("App", bases=["NotYetKnown"]))
        assert "App" in h
        # the unknown base is reported by name but not traversed further
        assert h.ancestors("App") == ["NotYetKnown"]
        # learning the base later links the chain up
        h.add(abstract("NotYetKnown"))
        assert h.descendants("NotYetKnown") == ["App"]


class TestMutation:
    def test_replace_updates_edges(self):
        h = TypeHierarchy()
        h.add(abstract("A"))
        h.add(abstract("B"))
        h.add(concrete("C", bases=["A"]))
        h.add(concrete("C", bases=["B"]))  # re-register with new base
        assert h.descendants("A") == []
        assert h.descendants("B") == ["C"]

    def test_remove(self, paper_hierarchy):
        removed = paper_hierarchy.remove("POVray")
        assert removed is not None
        assert "POVray" not in paper_hierarchy
        # JPOVray still reaches Imaging through its direct base edge
        assert "Imaging" in paper_hierarchy.ancestors("JPOVray")

    def test_require_raises(self):
        with pytest.raises(TypeNotFound):
            TypeHierarchy().require("ghost")


class TestCycles:
    def test_direct_cycle_rejected(self):
        h = TypeHierarchy()
        h.add(abstract("A", bases=["B"]))
        with pytest.raises(CycleInHierarchy):
            h.add(abstract("B", bases=["A"]))
        # the rejected type was rolled back entirely
        assert "B" not in h
        assert h.descendants("A") == []

    def test_long_cycle_rejected(self):
        h = TypeHierarchy()
        h.add(abstract("A", bases=["C"]))
        h.add(abstract("B", bases=["A"]))
        with pytest.raises(CycleInHierarchy):
            h.add(abstract("C", bases=["B"]))

    def test_rollback_restores_previous_version(self):
        h = TypeHierarchy()
        h.add(abstract("A"))
        h.add(abstract("B", bases=["A"]))
        with pytest.raises(CycleInHierarchy):
            h.add(abstract("A", bases=["B"]))  # would create a cycle
        # the original A (no bases) is still in place
        assert h.get("A").base_types == []
        assert h.descendants("A") == ["B"]

    def test_diamond_is_fine(self):
        h = TypeHierarchy()
        h.add(abstract("Top"))
        h.add(abstract("L", bases=["Top"]))
        h.add(abstract("R", bases=["Top"]))
        h.add(concrete("Bottom", bases=["L", "R"]))
        assert set(h.ancestors("Bottom")) == {"L", "R", "Top"}
        assert h.concrete_types_for("Top")[0].name == "Bottom"
        # no duplicates despite the diamond
        assert h.descendants("Top").count("Bottom") == 1
