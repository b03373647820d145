"""Tests for GLUE-style publication and the manual-deployment path."""

import pytest

from repro.mds.glue import (
    publish_site_info,
    publish_software,
    query_software,
)
from repro.vo import build_vo


def query_software_path(vo, from_site, index_site, name, target_site):
    """The Path child of one site's software record ('' when absent)."""
    paths = yield from vo.network.call(
        from_site, index_site, "mds-index", "query",
        payload=(
            f"//SoftwareEnvironment[@name='{name}'][@site='{target_site}']"
            "/Path/text()"
        ),
    )
    if not paths:
        return ""
    return paths[0].get("value", "")


@pytest.fixture()
def vo():
    return build_vo(n_sites=3, seed=171, monitors=False)


def test_site_info_published_and_queryable(vo):
    for site in vo.site_names:
        publish_site_info(vo, site)
    hits = vo.run_process(vo.network.call(
        "agrid01", "agrid02", "mds-index", "query",
        payload="//GridSite[@name='agrid02']",
    ))
    assert len(hits) == 1
    assert hits[0]["attrib"]["os"] == "Linux"


def test_software_publish_and_query(vo):
    publish_software(vo, "agrid02", "java", "1.4",
                     "/home/glare/java/bin/java", "/home/glare/java")
    found = vo.run_process(query_software(vo, "agrid01", "agrid02", "java",
                                          target_site="agrid02"))
    assert found == [{"site": "agrid02", "name": "java", "version": "1.4"}]
    path = vo.run_process(query_software_path(vo, "agrid01", "agrid02",
                                              "java", "agrid02"))
    assert path == "/home/glare/java/bin/java"


def test_missing_software_returns_empty(vo):
    found = vo.run_process(query_software(vo, "agrid01", "agrid02", "fortran"))
    assert found == []
    path = vo.run_process(query_software_path(vo, "agrid01", "agrid02",
                                              "fortran", "agrid02"))
    assert path == ""


def test_name_location_coupling_is_per_site(vo):
    """The paper's §2 critique: MDS entries bind names to one site."""
    publish_software(vo, "agrid01", "ant", "1.6", "/a/bin/ant")
    publish_software(vo, "agrid02", "ant", "1.5", "/other/ant")
    only_site1 = vo.run_process(query_software(
        vo, "agrid00", "agrid01", "ant", target_site="agrid01"))
    assert len(only_site1) == 1
    # querying site2's index never sees site1's entry: no federation
    from_site2 = vo.run_process(query_software(
        vo, "agrid00", "agrid02", "ant", target_site="agrid01"))
    assert from_site2 == []
