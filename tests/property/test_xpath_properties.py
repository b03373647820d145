"""Property-based tests for the XPath-subset engine."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wsrf.xmldoc import Element
from repro.wsrf.xpath import Forest, XPathQuery

tags = st.sampled_from(["Entry", "Type", "Deployment", "Meta", "Item"])
names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def documents(draw, depth=0):
    element = Element(draw(tags))
    if draw(st.booleans()):
        element.attrib["name"] = draw(names)
    if depth < 3:
        for child in draw(st.lists(documents(depth=depth + 1), max_size=4)):
            element.append(child)
    return element


@given(documents(), tags)
@settings(max_examples=200)
def test_descendant_query_matches_iteration(doc, tag):
    """``//Tag`` finds exactly the elements a full walk finds."""
    results, visits = XPathQuery.compile(f"//{tag}").evaluate(doc)
    expected = [e for e in doc.iter() if e.tag == tag]
    assert results == expected
    assert visits >= doc.count_nodes()


@given(documents(), tags, names)
@settings(max_examples=200)
def test_attribute_predicate_soundness(doc, tag, name):
    """Every match of ``//Tag[@name='x']`` really has that attribute."""
    query = XPathQuery.compile(f"//{tag}[@name='{name}']")
    results, _ = query.evaluate(doc)
    for element in results:
        assert element.tag == tag
        assert element.attrib.get("name") == name
    # completeness: nothing with the attribute was missed
    expected = [
        e for e in doc.iter()
        if e.tag == tag and e.attrib.get("name") == name
    ]
    assert results == expected


@given(documents())
@settings(max_examples=100)
def test_wildcard_child_step(doc):
    results, _ = XPathQuery.compile("/*").evaluate(doc)
    assert results == [doc]
    results, _ = XPathQuery.compile(f"/{doc.tag}/*").evaluate(doc)
    assert results == doc.children


@given(st.lists(documents(), max_size=5), tags)
@settings(max_examples=100)
def test_forest_query_is_union_of_per_document_queries(forest, tag):
    query = XPathQuery.compile(f"//{tag}")
    combined, _ = query.evaluate(forest)
    separate = []
    for doc in forest:
        results, _ = query.evaluate(doc)
        separate.extend(results)
    assert combined == separate


@given(documents(), tags)
@settings(max_examples=100)
def test_evaluation_is_pure(doc, tag):
    """Evaluating twice gives identical results and visit counts."""
    query = XPathQuery.compile(f"//{tag}[@name]")
    first = query.evaluate(doc)
    second = query.evaluate(doc)
    assert first == second


# -- Forest (indexed snapshot) vs the walk over the same roots -------------

#: few tags and values, so the same tag nests inside itself and the same
#: attribute value recurs across elements and documents
_small_tags = st.sampled_from(["T", "U", "C"])
_values = st.sampled_from(["v", "w", "x"])


@st.composite
def small_documents(draw, depth=0):
    element = Element(draw(_small_tags), text=draw(st.sampled_from(["", "x", "y"])))
    for name in draw(st.lists(st.sampled_from(["a", "b"]), unique=True)):
        element.attrib[name] = draw(_values)
    if depth < 3:
        for child in draw(st.lists(small_documents(depth=depth + 1), max_size=3)):
            element.append(child)
    return element


@st.composite
def forests(draw):
    docs = draw(st.lists(small_documents(), max_size=6))
    if docs and draw(st.booleans()):
        docs.append(draw(st.sampled_from(docs)))  # the same root listed twice
    return docs


@st.composite
def queries(draw):
    t, u, c = draw(_small_tags), draw(_small_tags), draw(_small_tags)
    v, w = draw(_values), draw(_values)
    return draw(st.sampled_from([
        f"//{t}",
        "//*",
        f"//{t}[@a='{v}']",
        f"//{t}[@a='{v}'][@b='{w}']",
        f"//{t}[@b='{w}'][@a]",
        f"//{t}[@a]",
        f"//{t}[@*]",
        f"//{t}[@*='{v}']",
        f"//{t}[{c}='x']",
        f"//{t}[{c}='x'][@a='{v}']",
        f"//{t}[2]",
        f"//{t}[@a='{v}'][2]",
        f"//{t}/{c}/text()",
        f"//{t}[@a='{v}']/{c}",
        f"//{t}//{u}/@a",
        f"//{t}[@a='{v}']//{u}/@*",
        f"/{t}/{u}",
    ]))


def _identical(left, right):
    """Same elements by identity (strings by value), in the same order."""
    return len(left) == len(right) and all(
        a is b if isinstance(a, Element) else a == b for a, b in zip(left, right)
    )


@given(forests(), st.lists(queries(), min_size=1, max_size=4))
@settings(max_examples=100)
def test_forest_index_equals_walk(docs, expressions):
    """Same elements (by identity, in order) and same visit count.

    Several queries share one ``Forest`` so later ones are served from
    tables the earlier ones built.
    """
    forest = Forest(docs)
    for expression in expressions:
        query = XPathQuery.compile(expression)
        indexed, indexed_visits = query.evaluate(forest)
        walked, walked_visits = query.evaluate(list(docs))
        assert _identical(indexed, walked), expression
        assert indexed_visits == walked_visits, expression
    assert forest.size == sum(d.count_nodes() for d in docs)
    assert list(forest) == docs


@given(forests(), queries())
@settings(max_examples=100)
def test_forest_results_do_not_alias_the_index(docs, expression):
    """A caller may mutate what ``evaluate`` returns; the index must not move."""
    forest = Forest(docs)
    query = XPathQuery.compile(expression)
    first, visits = query.evaluate(forest)
    expected = list(first)
    first.clear()
    again, again_visits = query.evaluate(forest)
    assert _identical(again, expected)
    assert again_visits == visits
