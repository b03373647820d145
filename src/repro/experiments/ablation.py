"""Ablations: each design choice DESIGN.md calls out, switched off.

The paper argues by comparison; the figures compare services.  These
units isolate one *mechanism* each, holding everything else fixed:

``lookup``
    Hash-table named lookup vs an XPath query answered by the *same*
    Activity Type Registry over the same 150 types ("this eliminates
    XPath-based search requirements for named resources", §3.1) — so
    the difference is purely the lookup mechanism, not the service.
``cache``
    The two-level cache on/off at fixed topology: deployment-list
    resolution over 3 registry sites (Fig. 12's world).
``refresh``
    The consistency side of that trade-off: a status change on the
    source site reaches a remote cached copy through the
    ``LastUpdateTime`` refresh of Fig. 6, so the fast path stays usable.
``overlay``
    Super-peer groups of 3 vs one flat group on a 12-site VO (§3.3):
    discovery of a type registered on one far-away site, in latency and
    in messages the VO carries.
``handler``
    Expect vs JavaCoG across installation-archive sizes — *why*
    Table 1's gap grows: JavaCoG pays a GRAM submission per step plus
    slower single-stream transfers.
``tiers``
    Where a request stream resolves (local / group / super-peer /
    on-demand install) with and without the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence

from repro.apps import publish_applications, register_application
from repro.experiments import fig10
from repro.experiments.fig12 import Fig12Point, run_fig12_point
from repro.experiments.harness import Experiment, Results
from repro.experiments.workload import active_deployment, plain_type_xml
from repro.glare.deployfile import parse_deployfile
from repro.glare.errors import DeploymentNotFound
from repro.glare.handlers import ExpectHandler, JavaCoGHandler
from repro.gram.service import GramService
from repro.gridftp.service import GridFtpService, UrlCatalog
from repro.net.network import Network
from repro.net.topology import Topology
from repro.runner import WorkUnit
from repro.simkernel import Simulator
from repro.site.description import SiteDescription
from repro.site.gridsite import GridSite
from repro.stats import collect_metrics
from repro.vo import build_vo

LOOKUP_TYPES, LOOKUP_REQUESTS = 150, 200
OVERLAY_SITES = 12
ARCHIVE_SIZES = (1_000_000, 8_000_000, 32_000_000)
TIER_APPS, TIER_ROUNDS = ("Wien2k", "Invmod"), 5
TIER_CLIENTS = ("agrid02", "agrid04", "agrid05")


@dataclass
class Lookup:
    """Per-request latency of the two paths into one registry."""

    hash_ms: float
    xpath_ms: float


def run_lookup() -> Lookup:
    per_request_ms = {}
    for method, payload_for in fig10.PAYLOADS.items():
        sim, net, service, _ = fig10._build("registry", False, LOOKUP_TYPES,
                                            seed=17)

        def client() -> Generator:
            for index in range(LOOKUP_REQUESTS):
                yield from net.call("c0", fig10.SERVER, service, method,
                                    payload=payload_for(index % LOOKUP_TYPES))

        sim.run(until=sim.process(client()))
        per_request_ms[method] = sim.now / LOOKUP_REQUESTS * 1000.0
    return Lookup(per_request_ms["lookup_type"], per_request_ms["query"])


def run_cache() -> Dict[str, Fig12Point]:
    return {arm: run_fig12_point(3, cache=(arm == "on"), clients=6)
            for arm in ("on", "off")}


@dataclass
class Refresh:
    """A remote cached deployment's status: as first cached, and 120 s
    after the source's monitor flagged it (``evicted`` if dropped)."""

    cached_as: str
    after_flag: str


def run_refresh() -> Refresh:
    vo = build_vo(n_sites=3, seed=33, cache_enabled=True, monitors=True,
                  group_size=4)
    vo.form_overlay()
    vo.run_process(vo.client_call(
        "agrid01", "register_type",
        payload={"xml": plain_type_xml("CachedApp", "x")}))
    # ACTIVE on paper only: the path is not on agrid01's filesystem, so
    # the source's status monitor will flag it FAILED
    deployment = active_deployment("CachedApp", "agrid01")
    vo.run_process(vo.client_call(
        "agrid01", "register_deployment",
        payload={"xml": deployment.wire_xml()}))
    vo.run_process(vo.client_call(
        "agrid02", "get_deployments",
        payload={"type": "CachedApp", "auto_deploy": False}))
    remote = vo.stack("agrid02").adr.cached_deployments

    def status() -> str:
        copy = remote.get(deployment.key)
        return copy.status.value if copy is not None else "evicted"

    cached_as = status()
    vo.sim.run(until=vo.sim.now + 120.0)
    return Refresh(cached_as, status())


@dataclass
class Walk:
    """One discovery walk: how the VO was grouped and what it cost."""

    groups: int
    latency_ms: float
    messages: int


def run_overlay() -> Dict[str, Walk]:
    walks = {}
    for arm, group_size in (("flat", OVERLAY_SITES + 1), ("grouped", 3)):
        vo = build_vo(n_sites=OVERLAY_SITES, seed=51, group_size=group_size,
                      monitors=False, cache_enabled=False)
        vo.form_overlay()
        # registered on the last site, resolved from the second
        vo.run_process(vo.client_call(
            f"agrid{OVERLAY_SITES - 1:02d}", "register_type",
            payload={"xml": plain_type_xml("FarApp", "x")}))
        messages_before = vo.network.total_messages

        def client() -> Generator:
            start = vo.sim.now
            try:
                yield from vo.client_call(
                    "agrid01", "get_deployments",
                    payload={"type": "FarApp", "auto_deploy": False})
            except DeploymentNotFound:
                pass  # the type has none; the walk that found it is measured
            return vo.sim.now - start

        latency = vo.run_process(client())
        walks[arm] = Walk(
            groups=len({s.rdm.overlay.view.super_peer
                        for s in vo.stacks.values()}),
            latency_ms=latency * 1000.0,
            messages=vo.network.total_messages - messages_before)
    return walks


_RECIPE = """
<Build baseDir="/opt/deployments/app" defaultTask="Deploy" name="app">
  <Step name="Init" task="mkdir-p" timeout="10">
    <Property name="argument" value="/opt/deployments/app"/>
  </Step>
  <Step name="Download" depends="Init" task="globus-url-copy"
        baseDir="/opt/deployments/app" timeout="300">
    <Property name="source" value="http://origin/app.tgz"/>
    <Property name="destination" value="file:///opt/deployments/app/app.tgz"/>
  </Step>
  <Step name="Expand" depends="Download" task="tar xvfz"
        baseDir="/opt/deployments/app" timeout="60">
    <Property name="argument" value="/opt/deployments/app/app.tgz"/>
  </Step>
  <Step name="Build" depends="Expand" task="make" demand="5.0"
        baseDir="/opt/deployments/app" timeout="300">
    <Produces path="bin/app" size="{binary_size}" executable="true"/>
  </Step>
</Build>
"""


def _install_seconds(handler_kind: str, size: int) -> float:
    """Install one ``size``-byte archive from ``origin`` on ``target``."""
    sim = Simulator(seed=77)
    net = Network(sim, Topology.star("target", ["origin", "caller"],
                                     latency=0.004, bandwidth=12.5e6))
    catalog = UrlCatalog()
    origin = GridSite(net, SiteDescription(name="origin"))
    net.add_node("caller")
    target = GridSite(net, SiteDescription(name="target"))
    GridFtpService(net, "origin", fs=origin.fs, url_catalog=catalog)
    gridftp = GridFtpService(net, "target", fs=target.fs, url_catalog=catalog)
    GramService(net, "target", submission_overhead=1.0)
    origin.fs.put_file("/www/app.tgz", size=size)
    catalog.publish("http://origin/app.tgz", "origin", "/www/app.tgz")
    recipe = parse_deployfile(_RECIPE.format(binary_size=size // 4))
    handler = (ExpectHandler(target, gridftp) if handler_kind == "expect"
               else JavaCoGHandler(target, gridftp, net, caller="caller"))

    def install() -> Generator:
        report = yield from handler.execute(recipe)
        if not report.success:
            raise RuntimeError(f"installation failed: {report.error}")
        return report.total_time

    return sim.run(until=sim.process(install()))


def run_handler() -> Dict[int, Dict[str, float]]:
    """Install time in seconds: archive bytes -> handler -> seconds."""
    return {size: {kind: _install_seconds(kind, size)
                   for kind in ("expect", "javacog")}
            for size in ARCHIVE_SIZES}


@dataclass
class TierRun:
    """Where the requests resolved, and their median latency."""

    tiers: Dict[str, int]
    median_ms: float


def run_tiers() -> Dict[str, TierRun]:
    runs = {}
    for arm in ("on", "off"):
        vo = build_vo(n_sites=6, seed=271, monitors=False, group_size=3,
                      cache_enabled=(arm == "on"))
        publish_applications(vo)
        vo.form_overlay()
        for app in TIER_APPS:
            vo.run_process(register_application(vo, "agrid01", app))

        def one(site: str, app: str) -> Generator:
            start = vo.sim.now
            yield from vo.client_call(site, "get_deployments", payload=app)
            return vo.sim.now - start

        latencies = [vo.run_process(one(site, app))
                     for _ in range(TIER_ROUNDS)
                     for site in TIER_CLIENTS for app in TIER_APPS]
        runs[arm] = TierRun(
            tiers=collect_metrics(vo).resolution_breakdown(),
            median_ms=sorted(latencies)[len(latencies) // 2] * 1000.0)
    return runs


def _render_lookup(r: Lookup) -> str:
    return (f"Ablation — per-request latency on a {LOOKUP_TYPES}-type "
            "registry:\n"
            f"  hash-table named lookup : {r.hash_ms:.2f} ms\n"
            f"  XPath query (same data) : {r.xpath_ms:.2f} ms\n"
            f"  speedup                 : {r.xpath_ms / r.hash_ms:.2f}x")


def _render_cache(r: Dict[str, Fig12Point]) -> str:
    on, off = r["on"].mean_response_ms, r["off"].mean_response_ms
    return ("Ablation — deployment-list resolution over 3 registry sites:\n"
            f"  cache on : {on:.1f} ms\n"
            f"  cache off: {off:.1f} ms\n"
            f"  speedup  : {off / on:.1f}x")


def _render_refresh(r: Refresh) -> str:
    return ("Ablation — cache refresh: remote cached deployment status "
            f"{r.cached_as!r} -> {r.after_flag!r} after the source flagged it")


def _render_overlay(r: Dict[str, Walk]) -> str:
    flat, grouped = r["flat"], r["grouped"]
    return (f"Ablation — discovery walk in a {OVERLAY_SITES}-site VO:\n"
            f"  flat ({flat.groups} group) : {flat.latency_ms:.1f} ms, "
            f"{flat.messages} messages\n"
            f"  super-peer ({grouped.groups} groups): "
            f"{grouped.latency_ms:.1f} ms, {grouped.messages} messages")


def _render_handler(r: Dict[int, Dict[str, float]]) -> str:
    lines = ["Ablation — install time (s) vs archive size:"]
    for size, seconds in r.items():
        lines.append(
            f"  {size / 1e6:5.0f} MB : expect {seconds['expect']:6.1f}  "
            f"javacog {seconds['javacog']:6.1f}  "
            f"(gap {seconds['javacog'] - seconds['expect']:5.1f})")
    return "\n".join(lines)


def _render_tiers(r: Dict[str, TierRun]) -> str:
    requests = len(TIER_CLIENTS) * len(TIER_APPS) * TIER_ROUNDS
    return (f"Ablation — resolution tiers over {requests} requests "
            f"({len(TIER_CLIENTS)} clients x {len(TIER_APPS)} apps x "
            f"{TIER_ROUNDS} rounds):\n" + "\n".join(
                f"  cache {arm:<3}: {r[arm].tiers}, median latency "
                f"{r[arm].median_ms:.1f} ms" for arm in ("on", "off")))


#: design choice -> renderer of what its ``run_<choice>`` returned
CHOICES = {"lookup": _render_lookup, "cache": _render_cache,
           "refresh": _render_refresh, "overlay": _render_overlay,
           "handler": _render_handler, "tiers": _render_tiers}


def _render(results: Results) -> str:
    return "\n\n".join(CHOICES[name.split(":")[1]](result)
                       for name, result in results.items())


def _check(results: Results) -> None:
    """Every design choice earns its keep (DESIGN.md, "Design choices
    called out for ablation")."""
    lookup = results["ablation:lookup"]
    assert lookup.xpath_ms > 1.5 * lookup.hash_ms, (
        f"ablation: XPath is not clearly slower than the named lookup on "
        f"the same registry: {lookup.xpath_ms:.2f} vs {lookup.hash_ms:.2f} ms")

    cache = results["ablation:cache"]
    speedup = cache["off"].mean_response_ms / cache["on"].mean_response_ms
    assert speedup > 3.0, (
        f"ablation: the cache speeds resolution up only {speedup:.1f}x")

    refresh = results["ablation:refresh"]
    assert refresh.cached_as == "active", (
        f"ablation: the remote site cached the deployment as "
        f"{refresh.cached_as!r}, not 'active'")
    assert refresh.after_flag in ("failed", "evicted"), (
        f"ablation: the remote cached copy is still {refresh.after_flag!r} "
        "120 s after the source flagged it failed")

    flat, grouped = (results["ablation:overlay"][arm]
                     for arm in ("flat", "grouped"))
    assert flat.groups == 1 and grouped.groups > 1, (
        f"ablation: overlay arms formed {flat.groups} and {grouped.groups} "
        "groups, not 1 and several")
    assert grouped.messages < flat.messages, (
        f"ablation: the super-peer walk carries no fewer messages than the "
        f"flat one: {grouped.messages} vs {flat.messages}")

    handler = results["ablation:handler"]
    gaps = [seconds["javacog"] - seconds["expect"]
            for seconds in handler.values()]
    assert min(gaps) > 0, (
        f"ablation: Expect does not beat JavaCoG at every archive size: "
        f"{handler}")
    assert gaps[-1] > gaps[0], (
        f"ablation: the JavaCoG gap does not widen with archive size: {gaps}")

    on, off = (results["ablation:tiers"][arm] for arm in ("on", "off"))
    assert on.tiers["on-demand-deploy"] == len(TIER_APPS), (
        f"ablation: cache on, not one install per application: {on.tiers}")
    assert on.tiers["local"] >= 20, (
        f"ablation: cache on, too few local hits: {on.tiers}")
    assert off.tiers["local"] == 0, (
        f"ablation: cache off, yet requests resolved locally: {off.tiers}")
    assert on.median_ms < off.median_ms, (
        f"ablation: the cached median is no faster: {on.median_ms:.1f} vs "
        f"{off.median_ms:.1f} ms")


def _units(choices: Sequence[str]) -> List[WorkUnit]:
    return [WorkUnit(f"ablation:{choice}",
                     f"repro.experiments.ablation:run_{choice}")
            for choice in choices]


EXPERIMENT = Experiment(
    name="ablation",
    summary="each design choice switched off: named lookup, cache (+ its "
            "refresh), overlay, handler, tiers",
    quick=tuple(CHOICES),
    full=tuple(CHOICES),
    units=_units,
    render=_render,
    check=_check,
)
