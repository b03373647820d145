"""Semantic (ontology-flavoured) activity-type search (paper §6).

"As a future work, we plan to augment activity types with ontological
description so that activity types can be searched for based on a
semantic description."  This module implements that search over what
the type documents already carry — domains, function names, input and
output kinds — plus a lightweight synonym ontology, so a client can ask
for *"something that renders a scene into an image"* without knowing
any type name.

Matching rules (scored, best first):

* a requested function name matches a type's own or *inherited*
  function (hierarchy-aware), directly or through a synonym ring;
* requested inputs must be a subset of some matching function's inputs
  (again modulo synonyms); same for outputs;
* a domain hint adds score when it matches, but does not exclude;
* only concrete types are returned (they are what can be deployed),
  though matching may happen through an abstract ancestor's functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set

from repro.glare.hierarchy import TypeHierarchy
from repro.glare.model import ActivityType
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService

#: default synonym rings for the imaging/science vocabulary of the paper
DEFAULT_SYNONYMS = [
    {"render", "convert", "rasterize", "imageconversion"},
    {"display", "visualize", "view"},
    {"scene", "scene.pov", "povscript"},
    {"image", "picture", "bitmap"},
    {"calibrate", "fit", "optimize"},
    {"execute", "run", "invoke"},
]


@dataclass
class SemanticQuery:
    """What the client wants, functionally."""

    function: str = ""
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    domain: str = ""

    @classmethod
    def from_wire(cls, wire: Dict) -> "SemanticQuery":
        return cls(
            function=wire.get("function", ""),
            inputs=list(wire.get("inputs", [])),
            outputs=list(wire.get("outputs", [])),
            domain=wire.get("domain", ""),
        )


@dataclass
class SemanticMatch:
    """One scored result."""

    type_name: str
    score: float
    matched_function: str

    def to_wire(self) -> Dict:
        return {
            "type": self.type_name,
            "score": round(self.score, 3),
            "function": self.matched_function,
        }


class SynonymTable:
    """Symmetric synonym rings with canonical representatives."""

    def __init__(self, rings: Optional[List[Set[str]]] = None) -> None:
        self._canon: Dict[str, str] = {}
        for ring in rings if rings is not None else DEFAULT_SYNONYMS:
            members = sorted(w.lower() for w in ring)
            representative = members[0]
            for member in members:
                self._canon[member] = representative

    def canonical(self, word: str) -> str:
        word = word.strip().lower()
        return self._canon.get(word, word)

    def same(self, a: str, b: str) -> bool:
        return self.canonical(a) == self.canonical(b)


class SemanticIndex:
    """Hierarchy-aware semantic matcher over a set of activity types."""

    def __init__(self, hierarchy: TypeHierarchy,
                 synonyms: Optional[SynonymTable] = None) -> None:
        self.hierarchy = hierarchy
        self.synonyms = synonyms or SynonymTable()

    def _functions_of(self, at: ActivityType):
        """Own plus inherited function objects."""
        functions = list(at.functions)
        for ancestor in self.hierarchy.ancestors(at.name):
            node = self.hierarchy.get(ancestor)
            if node is not None:
                functions.extend(node.functions)
        return functions

    def _score_function(self, query: SemanticQuery, function) -> float:
        score = 0.0
        if query.function:
            if self.synonyms.same(query.function, function.name):
                score += 3.0
            else:
                return -1.0  # the requested capability is mandatory
        if query.inputs:
            available = {self.synonyms.canonical(i) for i in function.inputs}
            wanted = {self.synonyms.canonical(i) for i in query.inputs}
            if not wanted <= available:
                return -1.0
            score += 1.0 + 0.25 * len(wanted)
        if query.outputs:
            produced = {self.synonyms.canonical(o) for o in function.outputs}
            wanted = {self.synonyms.canonical(o) for o in query.outputs}
            if not wanted <= produced:
                return -1.0
            score += 1.0 + 0.25 * len(wanted)
        return score

    def search(self, query: SemanticQuery) -> List[SemanticMatch]:
        """All concrete types satisfying the query, best first."""
        matches: List[SemanticMatch] = []
        for at in self.hierarchy.all_types():
            if not at.is_concrete:
                continue
            best_score = -1.0
            best_function = ""
            for function in self._functions_of(at):
                score = self._score_function(query, function)
                if score > best_score:
                    best_score = score
                    best_function = function.name
            if best_score < 0:
                continue
            if query.domain:
                if self.synonyms.same(query.domain, at.domain):
                    best_score += 1.0
            if at.installable:
                best_score += 0.5  # deployable matches are worth more
            matches.append(
                SemanticMatch(
                    type_name=at.name, score=best_score,
                    matched_function=best_function,
                )
            )
        matches.sort(key=lambda m: (-m.score, m.type_name))
        return matches


class SemanticLookup:
    """The ``semantic_lookup`` operation of one RDM service: a
    :class:`SemanticIndex` over everything the site knows (local +
    cached types), attached to the hosting service."""

    def __init__(self, rdm: "GlareRDMService") -> None:
        self.rdm = rdm
        self.index = SemanticIndex(rdm.atr.hierarchy)

    def op_semantic_lookup(self, message: Message) -> Generator:
        """Search types by functional description instead of by name.

        Payload: {'function':, 'inputs': [...], 'outputs': [...],
        'domain':}.
        """
        query = SemanticQuery.from_wire(message.payload or {})
        atr = self.rdm.atr
        # scan cost: proportional to the number of known types
        yield from self.rdm.compute(atr.lookup_demand + 2e-5 * len(atr.hierarchy))
        return [m.to_wire() for m in self.index.search(query)]
