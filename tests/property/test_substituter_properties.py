"""The compiled substituter against its reference: the per-call fixpoint.

:func:`reference_substitute` is ``GridSite.substitute_env`` as it was
while every call rebuilt and re-sorted its table and ran every
``str.replace`` of every round.  ``GridSite.substituter`` compiles the
table once and skips work that cannot match; these tests hold the two
to the same output on generated environments — nested and cyclic
definitions, both reference spellings, names that prefix each other.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.network import Network
from repro.net.topology import Topology
from repro.simkernel import Simulator
from repro.site.description import SiteDescription
from repro.site.gridsite import GridSite


def reference_substitute(site_env, text, extra=None):
    """The replaced implementation, verbatim."""
    table = dict(site_env)
    if extra:
        table.update(extra)
    keys = sorted(table, key=len, reverse=True)
    for _ in range(5):  # bounded fixpoint: no runaway on cycles
        before = text
        for key in keys:
            value = table[key]
            text = text.replace(f"${{{key}}}", value).replace(f"${key}", value)
        if text == before:
            break
    return text


SITE = GridSite(Network(Simulator(), Topology()), SiteDescription(name="s"))

#: names that prefix one another, two of them the site's own defaults
NAMES = st.sampled_from([
    "A", "B", "AB", "A_B", "DEPLOY", "DEPLOYMENT_DIR", "DEPLOYMENT_DIR2",
    "USER_HOME", "HOME", "X",
])
REFERENCES = st.one_of(NAMES.map("${}".format), NAMES.map("${{{}}}".format))
LITERALS = st.sampled_from(["", "/", "/opt", "lib-3.6.1", " ", "$", "${", "}", "$$"])
PIECES = st.one_of(REFERENCES, LITERALS)
TEXTS = st.lists(PIECES, max_size=6).map("".join)
PLAIN_TEXTS = st.text(alphabet="abc/{}_ .-", max_size=20)
#: at most three pieces per definition: a self-growing one multiplies by
#: its reference count in each of the five rounds (3^5 copies, not 6^5)
ENVIRONMENTS = st.dictionaries(
    NAMES, st.lists(PIECES, max_size=3).map("".join), max_size=6)


@given(ENVIRONMENTS, st.lists(st.one_of(TEXTS, PLAIN_TEXTS), min_size=1, max_size=5))
# nested definitions, both spellings
@example({"A": "$B/lib", "B": "${DEPLOYMENT_DIR}/b"}, ["$A", "${A}/x$B"])
# the shorter name is a prefix of the longer one
@example({"DEPLOY": "short"}, ["$DEPLOY/$DEPLOYMENT_DIR/${DEPLOY}MENT_DIR"])
# a two-cycle stops at the round bound, wherever that leaves the text
@example({"A": "$B", "B": "$A"}, ["$A", "$B$A", "${A}"])
# a self-reference that grows every round
@example({"A": "$A/x"}, ["$A"])
# overriding a site default; an empty value; nothing to substitute
@example({"DEPLOYMENT_DIR": "", "X": "$"}, ["$DEPLOYMENT_DIR$X", "plain/path", ""])
@settings(max_examples=400, deadline=None)
def test_substituter_matches_its_reference(extra, texts):
    substitute = SITE.substituter(extra)
    for text in texts:
        expected = reference_substitute(SITE.env, text, extra)
        assert substitute(text) == expected
        assert SITE.substitute_env(text, extra) == expected


@given(PLAIN_TEXTS)
def test_text_without_a_reference_is_returned_as_is(text):
    assert SITE.substituter({"A": "1"})(text) is text
