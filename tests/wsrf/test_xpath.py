"""Unit tests for the XPath-subset engine."""

import pytest

from repro.wsrf.xmldoc import parse_xml
from repro.wsrf.xpath import Forest, XPathError, XPathQuery, query_reply, xpath_find

DOC = parse_xml(
    """
<Registry>
  <Entry name="JPOVray" kind="concrete">
    <Type>Imaging</Type>
    <Deployment name="jpovray" kind="executable" path="/opt/jpovray/bin/jpovray"/>
    <Deployment name="WS-JPOVray" kind="service" path="https://s3/wsrf/povray"/>
  </Entry>
  <Entry name="Wien2k" kind="concrete">
    <Type>Physics</Type>
    <Deployment name="wien2k" kind="executable" path="/opt/wien2k/bin/run"/>
  </Entry>
  <Entry name="Imaging" kind="abstract">
    <Type>Root</Type>
  </Entry>
</Registry>
"""
)


class TestQueries:
    def test_descendant_by_attr(self):
        res = xpath_find(DOC, "//Entry[@name='JPOVray']")
        assert len(res) == 1
        assert res[0].get("kind") == "concrete"

    def test_child_path(self):
        res = xpath_find(DOC, "/Registry/Entry/Deployment")
        assert len(res) == 3

    def test_attribute_extraction(self):
        res = xpath_find(DOC, "//Deployment[@kind='executable']/@path")
        assert res == ["/opt/jpovray/bin/jpovray", "/opt/wien2k/bin/run"]

    def test_child_value_predicate(self):
        res = xpath_find(DOC, "//Entry[Type='Imaging']")
        assert [e.get("name") for e in res] == ["JPOVray"]

    def test_text_extraction(self):
        res = xpath_find(DOC, "//Entry[@name='Wien2k']/Type/text()")
        assert res == ["Physics"]

    def test_positional_predicate(self):
        res = xpath_find(DOC, "/Registry/Entry[2]")
        assert [e.get("name") for e in res] == ["Wien2k"]

    def test_wildcard(self):
        res = xpath_find(DOC, "/Registry/*")
        assert len(res) == 3

    def test_attr_existence_predicate(self):
        res = xpath_find(DOC, "//Deployment[@path]")
        assert len(res) == 3

    def test_multiple_predicates(self):
        res = xpath_find(DOC, "//Entry[@kind='concrete'][Type='Physics']")
        assert [e.get("name") for e in res] == ["Wien2k"]

    def test_no_match_returns_empty(self):
        assert xpath_find(DOC, "//Entry[@name='nothing']") == []

    def test_forest_evaluation(self):
        doc2 = parse_xml('<Registry><Entry name="Extra" kind="concrete"/></Registry>')
        q = XPathQuery.compile("//Entry")
        results, _ = q.evaluate([DOC, doc2])
        assert len(results) == 4


class TestVisitAccounting:
    def test_visits_scale_with_document_size(self):
        """The MDS cost model: bigger aggregate => more nodes visited."""
        q = XPathQuery.compile("//Entry[@name='target']")
        small = parse_xml("<R>" + "<Entry name='x'/>" * 10 + "</R>")
        large = parse_xml("<R>" + "<Entry name='x'/>" * 200 + "</R>")
        _, visits_small = q.evaluate(small)
        _, visits_large = q.evaluate(large)
        assert visits_large > 10 * visits_small / 2
        assert visits_large > visits_small

    def test_visits_positive_even_without_match(self):
        _, visits = XPathQuery.compile("//Nope").evaluate(DOC)
        assert visits >= DOC.count_nodes()


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "//Entry[@name=unquoted]",
            "//@attr/Entry",
            "//text()/Entry",
            "@name",
            "//Entry[]",
        ],
    )
    def test_rejects_bad_expressions(self, bad):
        with pytest.raises(XPathError):
            XPathQuery.compile(bad)

    def test_compile_is_reusable(self):
        q = XPathQuery.compile("//Entry")
        r1, _ = q.evaluate(DOC)
        r2, _ = q.evaluate(DOC)
        assert len(r1) == len(r2) == 3


class TestFusedDescendantWalk:
    """The fused ``walk_matching`` path must agree with the grouped path."""

    QUERIES = [
        "//Entry",
        "//Entry[@name='JPOVray']",
        "//Deployment[@kind='executable']",
        "//Entry/Deployment",
        "//Entry//Deployment",
        "/Registry//Deployment[@kind='service']/@path",
        "//Entry[Type='Imaging']",
        "//*",
        "//Entry/Type/text()",
    ]

    def _grouped_reference(self, expression, roots):
        """Reference result computed without the fused fast path."""
        from repro.wsrf import xpath as xp

        query = XPathQuery._compile_uncached(expression)
        # emulate the pre-fusion engine: preorder + _filter per root/group
        visits = 0
        current = []
        first = query.steps[0]
        for root in roots:
            if first.axis == "descendant":
                candidates = root.preorder()
            else:
                candidates = [root]
            matched, seen = xp._filter(candidates, first)
            visits += seen
            current.extend(matched)
        for step in query.steps[1:]:
            if step.is_attribute or step.is_text:
                break
            next_set = []
            for node in current:
                if step.axis == "descendant":
                    candidates = []
                    for child in node.children:
                        candidates.extend(child.preorder())
                else:
                    candidates = node.children
                matched, seen = xp._filter(candidates, step)
                visits += seen
                next_set.extend(matched)
            current = next_set
        last = query.steps[-1]
        if last.is_attribute and len(query.steps) > 1:
            name = last.test[1:]
            values = []
            for node in current:
                visits += 1
                if name == "*":
                    values.extend(node.attrib.values())
                elif name in node.attrib:
                    values.append(node.attrib[name])
            return values, visits
        if last.is_text and len(query.steps) > 1:
            texts = []
            for node in current:
                visits += 1
                if node.text.strip():
                    texts.append(node.text.strip())
            return texts, visits
        return list(current), visits

    @pytest.mark.parametrize("expression", QUERIES)
    def test_fused_matches_grouped_results_and_visits(self, expression):
        doc2 = parse_xml(
            '<Registry><Entry name="Extra" kind="concrete">'
            "<Type>Imaging</Type>"
            '<Deployment name="x" kind="executable" path="/opt/x"/>'
            "</Entry></Registry>"
        )
        forest = [DOC, doc2]
        fused = XPathQuery.compile(expression).evaluate(forest)
        reference = self._grouped_reference(expression, forest)
        assert fused == reference

    def test_position_predicate_stays_per_root(self):
        # [2] indexes within each root's candidate set, not the forest
        doc_a = parse_xml("<R><E n='a1'/><E n='a2'/></R>")
        doc_b = parse_xml("<R><E n='b1'/><E n='b2'/></R>")
        results, _ = XPathQuery.compile("//E[2]").evaluate([doc_a, doc_b])
        assert [e.get("n") for e in results] == ["a2", "b2"]


class TestAnyAttributePredicate:
    """``[@*]`` is "has an attribute", ``[@*='x']`` "some attribute equals x"."""

    ROOT = parse_xml(
        "<R><T a='x'/><T b='y'/><T/><T a='y' b='x'/><U a='x'/></R>"
    )

    @pytest.mark.parametrize("wrap", [list, Forest], ids=["walk", "forest"])
    def test_existence_and_value_forms(self, wrap):
        roots = wrap([self.ROOT])
        ts = self.ROOT.findall("T")
        assert xpath_find(roots, "//T[@*]") == [ts[0], ts[1], ts[3]]
        assert xpath_find(roots, "//T[@*='x']") == [ts[0], ts[3]]
        assert xpath_find(roots, "//T[@*='y']") == [ts[1], ts[3]]
        assert xpath_find(roots, "//T[@*='z']") == []
        assert xpath_find(roots, "//T[@a='y'][@*='x']") == [ts[3]]


class TestForestIndex:
    def test_index_is_built_once_and_only_when_queried(self):
        forest = Forest([DOC])
        assert forest._by_tag is None and not forest._by_attr
        xpath_find(forest, "/Registry/Entry")  # child-axis first step: the walk
        assert forest._by_tag is None
        xpath_find(forest, "//Entry[@name='JPOVray']")
        tags, table = forest._by_tag, forest._by_attr["Entry", "name"]
        xpath_find(forest, "//Entry[@name='Wien2k']")
        assert forest._by_tag is tags
        assert forest._by_attr["Entry", "name"] is table

    def test_is_a_plain_list_of_roots(self):
        forest = Forest(iter([DOC]))
        assert forest == [DOC] and len(forest) == 1 and forest[0] is DOC
        assert Forest().size == 0
        assert xpath_find(Forest(), "//Entry") == []


class TestQueryReply:
    def test_wire_form_and_size(self):
        elements, _ = XPathQuery.compile("//Deployment").evaluate(DOC)
        reply = query_reply(elements)
        assert reply.value[0] == {
            "tag": "Deployment",
            "attrib": {"name": "jpovray", "kind": "executable",
                       "path": "/opt/jpovray/bin/jpovray"},
            "text": "",
        }
        assert reply.value[0]["attrib"] is not elements[0].attrib
        assert reply.size == 128 * 3
        assert query_reply(["a"]).value == [{"value": "a"}]
        assert query_reply(["a"]).size == 256
        assert query_reply([]).size == 256


class TestCompileCache:
    def test_compile_memoizes(self):
        a = XPathQuery.compile("//Entry[@name='memo-test']")
        b = XPathQuery.compile("//Entry[@name='memo-test']")
        assert a is b

    def test_cache_is_bounded(self):
        from repro.wsrf.xpath import _COMPILE_CACHE, _COMPILE_CACHE_LIMIT

        for i in range(_COMPILE_CACHE_LIMIT + 10):
            XPathQuery.compile(f"//Bound{i}")
        assert len(_COMPILE_CACHE) <= _COMPILE_CACHE_LIMIT

    def test_bad_expressions_not_cached(self):
        from repro.wsrf.xpath import _COMPILE_CACHE

        with pytest.raises(XPathError):
            XPathQuery.compile("//Entry[]")
        assert "//Entry[]" not in _COMPILE_CACHE
