"""GLUE-style resource publication into the MDS hierarchy.

The paper's Example 1 repeatedly "queries MDS" for software locations
(``JAVA_HOME``, ``ANT_HOME``, library paths) and notes that "by default
only physical resources are registered in MDS, but it can be used for
logical resources like application components as well" (footnote 3).
This module provides both:

* :func:`publish_site_info` — a site's static GLUE document (platform,
  processors, memory) registered in its Default Index and forwarded to
  the Community Index;
* :func:`publish_software` — the (name, location)-style software entry
  the paper criticises: a flat ``<SoftwareEnvironment>`` record mapping
  a package name to a path on one site, queryable only by XPath.

The manual-deployment example (`examples/manual_deployment.py`) drives
a whole installation this way, which is exactly the pain §2 motivates
GLARE with.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.site.gridsite import GridSite
from repro.wsrf.xmldoc import Element


def software_document(site: str, name: str, version: str, path: str,
                      home: str = "") -> Element:
    """A flat (name, location) software record — the pre-GLARE way."""
    doc = Element(
        "SoftwareEnvironment",
        attrib={"site": site, "name": name, "version": version},
    )
    doc.make_child("Path", text=path)
    if home:
        doc.make_child("Home", text=home)
    return doc


def publish_site_info(vo, site_name: str) -> None:
    """Register a site's GLUE document in its own Default Index."""
    stack = vo.stack(site_name)
    site: GridSite = stack.site
    index = stack.index
    from repro.wsrf.resource import EndpointReference

    epr = EndpointReference(
        address=f"{site_name}/{index.name}", service=index.name,
        key=f"glue:{site_name}", last_update_time=vo.sim.now,
    )
    index.register_document(epr, site.description.to_info_document())


def publish_software(vo, site_name: str, name: str, version: str,
                     path: str, home: str = "") -> None:
    """Register a software entry in the site's Default Index."""
    index = vo.stack(site_name).index
    from repro.wsrf.resource import EndpointReference

    epr = EndpointReference(
        address=f"{site_name}/{index.name}", service=index.name,
        key=f"sw:{site_name}:{name}", last_update_time=vo.sim.now,
    )
    index.register_document(
        epr, software_document(site_name, name, version, path, home)
    )


def query_software(vo, from_site: str, index_site: str, name: str,
                   target_site: Optional[str] = None) -> Generator:
    """XPath-query an index for a software package's location.

    Returns a list of ``{"site":, "path":, "home":}`` dicts — the
    (name, location) tuples the paper says are all MDS can offer.
    """
    site_clause = f"[@site='{target_site}']" if target_site else ""
    hits = yield from vo.network.call(
        from_site, index_site, "mds-index", "query",
        payload=f"//SoftwareEnvironment[@name='{name}']{site_clause}",
    )
    results: List[dict] = []
    for hit in hits:
        attrib = hit.get("attrib", {})
        results.append({
            "site": attrib.get("site", ""),
            "name": attrib.get("name", ""),
            "version": attrib.get("version", ""),
        })
    return results
