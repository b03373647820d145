"""Tests for the VO metrics layer."""

import pytest

from repro.apps import get_application, publish_applications
from repro.stats import SiteMetrics, VOMetrics, collect_metrics
from repro.vo import build_vo


@pytest.fixture(scope="module")
def active_vo():
    vo = build_vo(n_sites=4, seed=301, monitors=False)
    publish_applications(vo, ["Wien2k"])
    vo.form_overlay()
    spec = get_application("Wien2k")
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml}))
    # first resolution triggers an install; second hits the cache
    vo.run_process(vo.client_call("agrid02", "get_deployments",
                                  payload="Wien2k"))
    vo.run_process(vo.client_call("agrid02", "get_deployments",
                                  payload="Wien2k"))
    return vo


def test_resolution_breakdown(active_vo):
    metrics = collect_metrics(active_vo)
    breakdown = metrics.resolution_breakdown()
    assert breakdown["on-demand-deploy"] == 1
    assert breakdown["local"] >= 1  # the cached second resolution
    assert metrics.total("requests") >= 2


def test_super_peer_flags(active_vo):
    metrics = collect_metrics(active_vo)
    super_peers = [m.site for m in metrics.sites.values() if m.is_super_peer]
    assert sorted(super_peers) == active_vo.super_peers()


def test_registry_population_counts(active_vo):
    metrics = collect_metrics(active_vo)
    assert metrics.sites["agrid01"].local_types == 1
    # agrid02 cached the type + deployments during resolution
    assert metrics.sites["agrid02"].cached_types >= 1
    assert metrics.sites["agrid02"].cached_deployments >= 1
    assert metrics.total("local_deployments") >= 2  # wien2k + lapw0


def test_traffic_counters_consistent(active_vo):
    metrics = collect_metrics(active_vo)
    assert metrics.total_messages > 0
    # every message leaving some VO node arrives somewhere (origin host
    # included, so VO-side in/out need not balance exactly; totals do)
    assert metrics.total("messages_out") <= metrics.total_messages


def test_render_is_readable(active_vo):
    text = collect_metrics(active_vo).render()
    assert "VO metrics" in text
    assert "agrid01" in text
    assert "cache hit rate" in text


def test_cache_hit_rate_bounds(active_vo):
    rate = collect_metrics(active_vo).cache_hit_rate()
    assert 0.0 <= rate <= 1.0


def test_bytes_reconcile(active_vo):
    """Wire totals decompose exactly into per-node sums.

    Each message leg is counted once on the wire and charged to exactly
    one sender, so the wire byte total must equal the member-site
    ``bytes_out`` sum plus the origin host's.  With every node online
    (as here), the receive side reconciles identically.
    """
    metrics = collect_metrics(active_vo)
    assert metrics.wire_bytes == metrics.total_bytes  # alias
    assert metrics.wire_bytes == (
        metrics.site_bytes_out + metrics.origin_bytes_out
    )
    assert metrics.wire_bytes == (
        metrics.site_bytes_in + metrics.origin_bytes_in
    )
    # the deployment pipeline pulled archives from the origin host
    assert metrics.origin_bytes_out > 0


def test_render_reports_byte_split(active_vo):
    text = collect_metrics(active_vo).render()
    assert "wire:" in text
    assert "site in/out:" in text
    assert "origin" in text


def test_cache_hit_rate_zero_lookups():
    metrics = VOMetrics(taken_at=0.0)
    metrics.sites["s1"] = SiteMetrics(site="s1")
    assert metrics.cache_hit_rate() == 0.0


def test_render_empty_vo():
    """A snapshot with no sites still renders without dividing by zero."""
    metrics = VOMetrics(taken_at=0.0)
    text = metrics.render()
    assert "VO metrics" in text
    assert "cache hit rate 0.0%" in text
    assert metrics.resolution_breakdown() == {
        "local": 0, "group": 0, "super-peer": 0, "on-demand-deploy": 0,
    }


def test_collect_metrics_without_probes():
    """collect_metrics reads each site's stack; nothing is registered."""
    vo = build_vo(n_sites=2, seed=302, monitors=False)
    metrics = collect_metrics(vo)
    assert set(metrics.sites) == set(vo.site_names)
