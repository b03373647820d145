"""Property-based tests: the shared-parse decode path of the data model.

``from_xml(str)`` parses each distinct document once;
``from_wire_xml(str)`` — what the registries decode received wires with
— also starts the copy with its wire form set (see the
:mod:`repro.glare.model` docstring).  For any document both must be
indistinguishable from the unmemoised ``from_xml(parse_xml(S))`` —
equal object, equal wire form, first call and N-th alike — and no two
copies may share anything mutable with each other or with the memo.
"""

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.glare.model import (
    ActivityDeployment,
    ActivityFunction,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
    InstallationSpec,
    TypeKind,
)
from repro.wsrf import xmldoc
from repro.wsrf.xmldoc import parse_xml
from tests.property.test_xml_properties import attr_values, tag_names, texts

idents = st.text(alphabet=string.ascii_letters + string.digits, min_size=1,
                 max_size=8)
scores = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

functions = st.builds(ActivityFunction, name=attr_values,
                      inputs=st.lists(texts, max_size=3),
                      outputs=st.lists(texts, max_size=3))
installations = st.builds(
    InstallationSpec,
    mode=st.sampled_from(["on-demand", "manual"]),
    constraints=st.dictionaries(tag_names, texts, max_size=3),
    deploy_file_url=attr_values, deploy_file_md5=attr_values,
    dependencies=st.lists(idents, max_size=3),
)


@st.composite
def activity_types(draw):
    concrete = draw(st.booleans())
    low = draw(st.integers(min_value=0, max_value=3))
    return ActivityType(
        name="T" + draw(idents),
        kind=TypeKind.CONCRETE if concrete else TypeKind.ABSTRACT,
        base_types=["B" + base for base in draw(st.lists(idents, max_size=3))],
        domain=draw(texts), description=draw(texts),
        functions=draw(st.lists(functions, max_size=3)),
        benchmarks=draw(st.dictionaries(attr_values, scores, max_size=3)),
        installation=draw(st.none() | installations) if concrete else None,
        deployment_names=draw(st.lists(texts, max_size=3)),
        min_deployments=low,
        max_deployments=draw(st.none() | st.integers(min_value=low, max_value=9)),
        provider=draw(texts),
    )


@st.composite
def activity_deployments(draw):
    service = draw(st.booleans())
    metric = st.none() | scores
    return ActivityDeployment(
        name="d" + draw(idents), type_name="T" + draw(idents),
        kind=DeploymentKind.SERVICE if service else DeploymentKind.EXECUTABLE,
        site=draw(attr_values),
        path="" if service else "/opt/" + draw(idents), home=draw(texts),
        endpoint="https://" + draw(idents) if service else "",
        status=draw(st.sampled_from(list(DeploymentStatus))),
        last_execution_time=draw(metric), last_invocation_time=draw(metric),
        last_return_code=draw(st.none() | st.integers(-5, 255)),
        environment=draw(st.dictionaries(attr_values, attr_values, max_size=3)),
    )


@st.composite
def documents(draw):
    """``(model class, document string)`` — some as the registries emit
    them, some with whitespace-padded character data, which the parser
    strips and the canonical wire form therefore does not reproduce."""
    item = draw(activity_types() | activity_deployments())
    text = item.to_xml().to_string()
    if draw(st.booleans()):
        text = re.sub(r">([^<>\n]+)</", r">  \1 </", text)
    return type(item), text


@given(documents(), st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_decode_equals_unmemoised_decode_first_and_nth_time(document, repeats):
    cls, text = document
    xmldoc._SHARED.pop(text, None)  # the first call really is the first
    reference = cls.from_xml(parse_xml(text))
    for _ in range(repeats):
        for decoded in (cls.from_xml(text), cls.from_wire_xml(text)):
            assert decoded == reference
            assert decoded.wire_xml() == decoded.to_xml().to_string()
            assert decoded.wire_xml() == reference.wire_xml()
            assert decoded.wire_size() == len(reference.wire_xml())


def _scribble(item) -> None:
    """Mutate every list and dict a decoded object carries."""
    if isinstance(item, ActivityType):
        item.base_types.append("scribble")
        item.functions.append(ActivityFunction("scribble"))
        for function in item.functions:
            function.inputs.append("scribble")
            function.outputs.clear()
        item.benchmarks["scribble"] = 1.0
        item.deployment_names.append("scribble")
        if item.installation is not None:
            item.installation.constraints["scribble"] = "1"
            item.installation.dependencies.append("scribble")
    else:
        item.environment["scribble"] = "1"


@given(documents())
@settings(max_examples=200)
def test_copies_share_nothing_with_each_other_or_the_memo(document):
    cls, text = document
    reference = cls.from_xml(parse_xml(text))
    wire_form = reference.wire_xml()
    for decode in (cls.from_wire_xml, cls.from_xml):
        scribbled, untouched = decode(text), decode(text)
        assert scribbled is not untouched
        _scribble(scribbled)
        scribbled.invalidate_wire_cache()
        assert scribbled != reference and scribbled.wire_xml() != wire_form
        # the sibling copy, the next copy and the memo are as they were
        assert untouched == reference and untouched.wire_xml() == wire_form
        later = decode(text)
        assert later == reference and later.wire_xml() == wire_form
    shared = xmldoc._SHARED[text]
    assert shared.canonical == wire_form
    assert shared.root.to_string() == parse_xml(text).to_string()
