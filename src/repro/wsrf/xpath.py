"""An XPath-subset query engine with node-visit accounting.

The WS-MDS index service answers queries "by using standard XPath-based
querying mechanism" while the GLARE registries short-circuit named
lookups through hash tables — the performance gap in paper Figs. 10/11
comes exactly from this difference.  To reproduce it mechanistically we
execute real XPath evaluations over the aggregated resource documents
and report how many element nodes each evaluation *visited*; the index
service charges CPU time proportional to that count.

Supported grammar (sufficient for GT4-style resource queries)::

    query     := ('/' | '//')? step (('/' | '//') step)*
    step      := nametest predicate* | '@' name
    nametest  := NAME | '*' | 'text()'
    predicate := '[' INTEGER ']'
               | '[' '@' NAME ('=' literal)? ']'
               | '[' NAME ('=' literal)? ']'
               | '[' 'text()' '=' literal ']'
    literal   := "'" chars "'" | '"' chars '"'

Examples::

    //ActivityType[@name='JPOVray']
    /Registry/Entry/Deployment[@kind='executable']/@path
    //Entry[Type='Imaging'][2]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.net.message import Response
from repro.wsrf.xmldoc import Element


class XPathError(ValueError):
    """Raised for query syntax the engine does not accept."""


_STEP_RE = re.compile(
    r"""
    (?P<axis>//|/)?                # leading axis separator
    (?P<test>@?[\w.\-:]+(?:\(\))?|\*|@\*)  # name / @name / * / text()
    (?P<preds>(?:\[[^\]]*\])*)     # zero or more [..] predicates
    """,
    re.VERBOSE,
)

_PRED_RE = re.compile(r"\[([^\]]*)\]")


@dataclass(frozen=True)
class Predicate:
    """One ``[...]`` filter on a location step."""

    kind: str  # "position" | "attr" | "child" | "text"
    name: str = ""
    value: Optional[str] = None
    position: int = 0

    def matches(self, element: Element, index: int) -> bool:
        if self.kind == "position":
            return index == self.position
        if self.kind == "attr":
            if self.name == "*":
                if self.value is None:
                    return bool(element.attrib)
                return self.value in element.attrib.values()
            actual = element.attrib.get(self.name)
            if actual is None:
                return False
            return self.value is None or actual == self.value
        if self.kind == "text":
            return element.text.strip() == (self.value or "")
        if self.kind == "child":
            for child in element.children:
                if child.tag == self.name:
                    if self.value is None or child.text.strip() == self.value:
                        return True
            return False
        raise XPathError(f"unknown predicate kind {self.kind!r}")  # pragma: no cover


@dataclass(frozen=True)
class Step:
    """One location step: axis + node test + predicates."""

    axis: str  # "child" | "descendant"
    test: str  # tag name, "*", "text()", or "@attr"
    predicates: Tuple[Predicate, ...] = ()

    @property
    def is_attribute(self) -> bool:
        return self.test.startswith("@")

    @property
    def is_text(self) -> bool:
        return self.test == "text()"


def _parse_literal(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    raise XPathError(f"expected a quoted literal, got {raw!r}")


def _parse_predicate(body: str) -> Predicate:
    body = body.strip()
    if not body:
        raise XPathError("empty predicate")
    if body.isdigit():
        return Predicate(kind="position", position=int(body))
    if "=" in body:
        left, right = body.split("=", 1)
        left = left.strip()
        value = _parse_literal(right)
        if left.startswith("@"):
            return Predicate(kind="attr", name=left[1:], value=value)
        if left == "text()":
            return Predicate(kind="text", value=value)
        return Predicate(kind="child", name=left, value=value)
    if body.startswith("@"):
        return Predicate(kind="attr", name=body[1:])
    return Predicate(kind="child", name=body)


class Forest(list):
    """A persistent snapshot of document roots, indexed on first query.

    A plain ``list`` of roots as far as any caller can tell; handing
    one to :meth:`XPathQuery.evaluate` says the roots *and their
    subtrees* will not change for as long as this object is in use, so
    a leading ``//Tag`` step (and a leading ``[@a='v']`` on it) can be
    answered from tables instead of a walk.  The owner replaces the
    whole ``Forest`` when a document is added, removed or re-pulled;
    documents are rebuilt, never edited in place.

    Everything is lazy: a snapshot nobody queries costs one ``list``.
    """

    __slots__ = ("_by_tag", "_by_attr", "_size")

    def __init__(self, roots: Iterable[Element] = ()) -> None:
        super().__init__(roots)
        self._by_tag: Optional[Dict[str, List[Element]]] = None
        self._by_attr: Dict[Tuple[str, str], Dict[str, List[Element]]] = {}
        self._size = 0

    def _tags(self) -> Dict[str, List[Element]]:
        by_tag = self._by_tag
        if by_tag is None:
            by_tag = {}
            size = 0
            for root in self:
                nodes = root.preorder()
                size += len(nodes)
                for node in nodes:
                    bucket = by_tag.get(node.tag)
                    if bucket is None:
                        by_tag[node.tag] = [node]
                    else:
                        bucket.append(node)
            self._by_tag = by_tag
            self._size = size
        return by_tag

    @property
    def size(self) -> int:
        """Element count of the whole forest (what one full walk visits)."""
        self._tags()
        return self._size

    def seed(self, step: Step) -> Tuple[List[Element], int, Tuple[Predicate, ...]]:
        """Node set of a leading ``//Tag`` step, as the walk would build it.

        Returns the nodes (forest order, pre-order within a root), the
        visits the walk would have counted to find them — the whole
        forest for the node test, every tagged element for a leading
        ``[@a='v']`` — and the predicates still to be applied.  The
        lists belong to the index: read, never mutate.
        """
        tag = step.test
        nodes = self._tags().get(tag) or []
        visits = self._size
        predicates = step.predicates
        if predicates:
            lead = predicates[0]
            if lead.kind == "attr" and lead.name != "*" and lead.value is not None:
                table = self._by_attr.get((tag, lead.name))
                if table is None:
                    table = self._by_attr[tag, lead.name] = {}
                    for element in nodes:
                        actual = element.attrib.get(lead.name)
                        if actual is not None:
                            table.setdefault(actual, []).append(element)
                visits += len(nodes)
                nodes = table.get(lead.value) or []
                predicates = predicates[1:]
        return nodes, visits, predicates


#: memoized compiled queries — services re-issue the same handful of
#: expressions thousands of times, and parsing showed up in profiles.
#: Bounded: cleared wholesale if an adversarial workload floods it.
_COMPILE_CACHE: dict = {}
_COMPILE_CACHE_LIMIT = 512


@dataclass
class XPathQuery:
    """A compiled query; reusable (and shared!) across documents.

    Instances returned by :meth:`compile` are cached per expression and
    shared between callers; treat them as immutable.
    """

    expression: str
    steps: List[Step] = field(default_factory=list)
    absolute: bool = False

    @classmethod
    def compile(cls, expression: str) -> "XPathQuery":
        cached = _COMPILE_CACHE.get(expression)
        if cached is not None:
            return cached
        query = cls._compile_uncached(expression)
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
            _COMPILE_CACHE.clear()
        _COMPILE_CACHE[expression] = query
        return query

    @classmethod
    def _compile_uncached(cls, expression: str) -> "XPathQuery":
        text = expression.strip()
        if not text:
            raise XPathError("empty XPath expression")
        query = cls(expression=expression)
        pos = 0
        first = True
        while pos < len(text):
            match = _STEP_RE.match(text, pos)
            if not match or match.end() == pos:
                raise XPathError(f"cannot parse XPath at ...{text[pos:]!r}")
            axis_token = match.group("axis") or ""
            if first:
                query.absolute = axis_token in ("/", "//")
                axis = "descendant" if axis_token == "//" else "child"
            else:
                if axis_token not in ("/", "//"):
                    raise XPathError(f"missing '/' before step at ...{text[pos:]!r}")
                axis = "descendant" if axis_token == "//" else "child"
            predicates = tuple(
                _parse_predicate(m.group(1)) for m in _PRED_RE.finditer(match.group("preds"))
            )
            step = Step(axis=axis, test=match.group("test"), predicates=predicates)
            if step.is_attribute and predicates:
                raise XPathError("attribute steps cannot carry predicates")
            query.steps.append(step)
            pos = match.end()
            first = False
        if not query.steps:
            raise XPathError("no location steps found")
        for step in query.steps[:-1]:
            if step.is_attribute or step.is_text:
                raise XPathError("@attr / text() allowed only as the final step")
        if query.steps[0].is_attribute or query.steps[0].is_text:
            raise XPathError("query must select elements before @attr / text()")
        return query

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, roots: Union[Element, Iterable[Element]]
    ) -> Tuple[List[Union[Element, str]], int]:
        """Run the query; returns ``(matches, nodes_visited)``.

        ``roots`` is a document root or an iterable of roots (the MDS
        aggregate is a forest of member documents).  Attribute and
        ``text()`` final steps yield strings; otherwise elements.

        A :class:`Forest` answers a leading ``//Tag`` from its index;
        matches, their order and the visit count are what the walk
        over the same roots produces.
        """
        indexed = isinstance(roots, Forest)
        if indexed:
            root_list: Sequence[Element] = roots  # persistent by contract: no copy
        elif isinstance(roots, Element):
            root_list = [roots]
        else:
            root_list = list(roots)

        visits = 0
        current: List[Element] = []

        first = self.steps[0]
        # Seed the node set from document roots.  Descendant steps fuse
        # the subtree walk with the tag test (see ``walk_matching``);
        # the unfused path is kept for position predicates, whose index
        # is defined within each root's own candidate set.
        if first.axis == "descendant" and not _has_position_predicate(first):
            if indexed and first.test != "*":
                current, visits, predicates = roots.seed(first)
            else:
                tag = None if first.test == "*" else first.test
                for root in root_list:
                    visits += root.walk_matching(tag, current)
                predicates = first.predicates
            current, extra = _apply_predicates(current, predicates)
            visits += extra
        else:
            for root in root_list:
                if first.axis == "descendant":
                    candidates = root.preorder()
                else:
                    candidates = [root]
                matched, seen = _filter(candidates, first)
                visits += seen
                current.extend(matched)

        for step in self.steps[1:]:
            if step.is_attribute or step.is_text:
                break
            next_set: List[Element] = []
            if step.axis == "descendant" and not _has_position_predicate(step):
                tag = None if step.test == "*" else step.test
                for node in current:
                    for child in node.children:
                        visits += child.walk_matching(tag, next_set)
                next_set, extra = _apply_predicates(next_set, step.predicates)
                visits += extra
            else:
                for node in current:
                    if step.axis == "descendant":
                        candidates = []
                        for child in node.children:
                            candidates.extend(child.preorder())
                    else:
                        candidates = node.children
                    matched, seen = _filter(candidates, step)
                    visits += seen
                    next_set.extend(matched)
            current = next_set

        last = self.steps[-1]
        if last.is_attribute and len(self.steps) > 1:
            name = last.test[1:]
            values: List[Union[Element, str]] = []
            for node in current:
                visits += 1
                if name == "*":
                    values.extend(node.attrib.values())
                elif name in node.attrib:
                    values.append(node.attrib[name])
            return values, visits
        if last.is_text and len(self.steps) > 1:
            texts: List[Union[Element, str]] = []
            for node in current:
                visits += 1
                if node.text.strip():
                    texts.append(node.text.strip())
            return texts, visits
        return list(current), visits


def _has_position_predicate(step: Step) -> bool:
    """True when any predicate indexes by position (needs grouped eval)."""
    for predicate in step.predicates:
        if predicate.kind == "position":
            return True
    return False


def _apply_predicates(
    matched: List[Element], predicates: Sequence[Predicate]
) -> Tuple[List[Element], int]:
    """Run predicates over ``matched``; returns survivors + visit count.

    One visit per element per predicate evaluated against it — the same
    accounting whether the caller filtered per group or over the
    concatenation (position predicates excepted; callers keep those on
    the grouped path).
    """
    visits = 0
    for predicate in predicates:
        visits += len(matched)
        matches = predicate.matches
        matched = [
            element
            for index, element in enumerate(matched, start=1)
            if matches(element, index)
        ]
    return matched, visits


def _filter(candidates: Sequence[Element], step: Step) -> Tuple[List[Element], int]:
    """Apply a step's node test and predicates; count visited nodes.

    Visit accounting (the MDS cost model) is: one visit per candidate
    for the node test, plus one visit per surviving element for each
    predicate evaluated against it.
    """
    if step.is_attribute or step.is_text:
        # Handled by the caller when final; mid-query it's a parse error.
        return list(candidates), len(candidates)
    visits = len(candidates)
    test = step.test
    if test == "*":
        matched = list(candidates)
    else:
        matched = [element for element in candidates if element.tag == test]
    matched, predicate_visits = _apply_predicates(matched, step.predicates)
    return matched, visits + predicate_visits


def query_reply(results: Sequence[Union[Element, str]]) -> Response:
    """The wire form of a query's matches, shared by every ``op_query``.

    Elements travel as ``{tag, attrib, text}`` summaries, attribute and
    ``text()`` values as ``{value}``; 128 bytes a match, 256 at least.
    """
    summaries = [
        {"tag": r.tag, "attrib": dict(r.attrib), "text": r.text}
        if isinstance(r, Element) else {"value": r}
        for r in results
    ]
    return Response(value=summaries, size=max(256, 128 * len(summaries)))


def xpath_find(
    roots: Union[Element, Iterable[Element]], expression: str
) -> List[Union[Element, str]]:
    """One-shot convenience wrapper: compile, evaluate, drop the count."""
    results, _ = XPathQuery.compile(expression).evaluate(roots)
    return results
