"""The activity-type hierarchy: abstract roots, concrete leaves.

"Activity Types are organized in a hierarchy of abstract and concrete
types.  An abstract type is one which has no directly associated
deployment.  A concrete type may have multiple deployments..." (paper
§2.2, Fig. 2).  Discovery walks *down* the hierarchy: a client asks for
``ImageConversion`` (abstract) and GLARE finds ``JPOVray`` (concrete).

The hierarchy is a DAG — multiple inheritance is explicitly allowed
(``JPOVray`` extends both ``POVray`` and ``Imaging``).  We keep a
forward index (type -> base types) and a reverse index (type ->
subtypes) and validate acyclicity on every insertion.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.glare.errors import CycleInHierarchy, TypeNotFound
from repro.glare.model import ActivityType, TypeKind


class TypeHierarchy:
    """In-memory index over a set of :class:`ActivityType` objects."""

    def __init__(self) -> None:
        self._types: Dict[str, ActivityType] = {}
        self._subtypes: Dict[str, Set[str]] = {}

    def __len__(self) -> int:
        return len(self._types)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def names(self) -> List[str]:
        return sorted(self._types)

    def get(self, name: str) -> Optional[ActivityType]:
        return self._types.get(name)

    def require(self, name: str) -> ActivityType:
        at = self._types.get(name)
        if at is None:
            raise TypeNotFound(f"unknown activity type {name!r}")
        return at

    # -- mutation -----------------------------------------------------------

    def add(self, activity_type: ActivityType) -> ActivityType:
        """Insert or replace a type, keeping the DAG acyclic.

        Base types that are not (yet) registered are tolerated: the
        distributed registry may learn them later.
        """
        name = activity_type.name
        previous = self._types.get(name)
        self._types[name] = activity_type
        if previous is not None:
            for base in previous.base_types:
                self._subtypes.get(base, set()).discard(name)
        for base in activity_type.base_types:
            self._subtypes.setdefault(base, set()).add(name)
        if self._reaches_itself(name):
            # roll back
            for base in activity_type.base_types:
                self._subtypes.get(base, set()).discard(name)
            if previous is not None:
                self._types[name] = previous
                for base in previous.base_types:
                    self._subtypes.setdefault(base, set()).add(name)
            else:
                del self._types[name]
            raise CycleInHierarchy(
                f"adding {name!r} (extends {activity_type.base_types}) creates a cycle"
            )
        return activity_type

    def remove(self, name: str) -> Optional[ActivityType]:
        """Drop a type from the index (subtype links to it remain dangling)."""
        removed = self._types.pop(name, None)
        if removed is not None:
            for base in removed.base_types:
                self._subtypes.get(base, set()).discard(name)
        return removed

    def _reaches_itself(self, start: str) -> bool:
        """Cycle check: can ``start`` reach itself via base-type edges?"""
        stack = list(self._types.get(start).base_types if start in self._types else [])
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current == start:
                return True
            if current in seen:
                continue
            seen.add(current)
            node = self._types.get(current)
            if node is not None:
                stack.extend(node.base_types)
        return False

    # -- traversal -----------------------------------------------------------

    def ancestors(self, name: str) -> List[str]:
        """All (transitive) base types of ``name``, breadth-first."""
        self.require(name)
        out: List[str] = []
        seen: Set[str] = set()
        queue = list(self._types[name].base_types)
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            node = self._types.get(current)
            if node is not None:
                queue.extend(node.base_types)
        return out

    def descendants(self, name: str) -> List[str]:
        """All (transitive) subtypes of ``name``, breadth-first."""
        out: List[str] = []
        seen: Set[str] = set()
        queue = sorted(self._subtypes.get(name, set()))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            queue.extend(sorted(self._subtypes.get(current, set())))
        return out

    def concrete_types_for(self, name: str) -> List[ActivityType]:
        """Concrete types providing the functionality of ``name``.

        A concrete type itself resolves to itself; an abstract type
        resolves to its concrete descendants — the discovery walk of
        paper §2.2 ("abstract activity types are used to discover
        concrete activity types").
        """
        root = self.get(name)
        results: List[ActivityType] = []
        if root is not None and root.kind == TypeKind.CONCRETE:
            results.append(root)
        for descendant in self.descendants(name):
            node = self._types.get(descendant)
            if node is not None and node.kind == TypeKind.CONCRETE:
                results.append(node)
        return results

    def all_types(self) -> Iterable[ActivityType]:
        return list(self._types.values())

    def roots(self) -> List[str]:
        """Types with no registered base types (hierarchy entry points)."""
        return sorted(
            name
            for name, at in self._types.items()
            if not any(base in self._types for base in at.base_types)
        )
