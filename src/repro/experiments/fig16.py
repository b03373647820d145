"""Fig. 16 (extension): resolution under super-peer churn.

The paper's self-management claim (§3.4) is qualitative: super-peers
are re-elected when they fail, and "activity registration, deployment
and provisioning continue".  This experiment quantifies it.  A VO runs
a steady resolution + provisioning workload while a churn loop
repeatedly crashes *whoever is the current super-peer* of the group
hosting every activity type: at each churn time it picks the victim
and spawns the fault plane's one outage generator
(:meth:`~repro.faults.FaultPlane.outage`), so takeovers are chased
across epochs.

Two series over the identical fault schedule:

* **resilient** — the overlay's failure detector is on (member probes
  → majority-verified takeover) and clients wrap each request in a
  :class:`~repro.net.interceptors.RetryPolicy` that also retries
  application-level misses (``retry_on=(GlareError,)`` — a resolution
  that fails because the escalation path is headless raises
  ``TypeNotFound``, not a transport error);
* **fragile** — probes are disabled (no takeover ever happens) and
  clients issue single attempts: every request that lands in a crash
  window fails, and the group stays headless until the crashed
  super-peer itself restarts.

Per series the run reports the request success rates, the number of
re-elections, and the recovery time of every crash (first takeover
acknowledging the missing super-peer, both read from the simulator's
journal).  Every request's outcome is folded into an
order-insensitive digest; two same-seed runs of a series must agree
bit-for-bit (the fault plane draws from named seeded streams), which
the experiment declares by listing a repeat of each resilient unit.
Its ``check`` holds the contrast: resilient resolution and provision
success ≥ 0.95, fragile resolution success below resilient, at least
one takeover with the detector on and none with it off.

The SLO extension runs the same pair with :data:`FIG16_SLOS` declared,
on a churn schedule spaced so every incident can close before the next
crash (the sequential crash↔alert pairing in
:func:`~repro.obs.slo.detection_timeline` needs quiet gaps; the
digest-pinned schedule above is left untouched).  Its acceptance is
that every scheduled crash is *detected* — the attempt-level burn-rate
alert fires after each one, in both series — that the call-level
verdicts separate the series (fragile ``exhausted``, resilient
``met``), and that detection is deterministic: the repeat must agree
on every field, detection latencies and repair times included.

Methodology notes
-----------------
Registry caching is off so every resolution exercises the overlay
path (a cache would mask the headless-group window); monitors are off
so the only recovery mechanisms in play are the ones under test
(probe/takeover), not the community re-election sweep.  Activity
types are homed on the *lowest-ranked* members of the victim group so
the takeover chain (highest-ranked survivor first) never crashes a
content host: measured failures are pure overlay unavailability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.apps import get_application, publish_applications
from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_table
from repro.experiments.workload import (
    records_digest,
    register_served_type,
    resolve,
)
from repro.glare.errors import GlareError
from repro.net.interceptors import RetryPolicy
from repro.obs import Observability
from repro.obs.slo import CALL, BurnRateRule, SLOSpec, detection_timeline
from repro.runner import WorkUnit
from repro.simkernel import entries
from repro.vo import build_vo

GROUP_SIZE = 5

#: member probe period in the resilient series (the paper's detector);
#: the fragile series replaces it with an effectively-infinite period
PROBE_INTERVAL = 10.0
PROBE_DISABLED = 1e9

#: catalog applications installed on demand, one per provisioning
#: round (dependency-free entries only, so each round is a single
#: discover → install chain)
PROVISION_APPS = ("Wien2k", "Counter", "Invmod", "Java")

#: client-side policy for the resilient series: transport faults and
#: application-level misses both retry; backoff spans the detector's
#: worst-case takeover latency with margin
RESOLVE_RETRY = RetryPolicy(
    attempts=5, per_try_timeout=20.0, base_delay=3.0, multiplier=2.0,
    max_delay=20.0, deadline=90.0, retry_on=(GlareError,),
)
#: provisioning requests carry no per-try timeout (a successful
#: on-demand install legitimately takes a while) — only failed walks
#: are retried
PROVISION_RETRY = RetryPolicy(
    attempts=5, base_delay=5.0, multiplier=2.0, max_delay=30.0,
    retry_on=(GlareError,),
)

#: objectives for the SLO extension pair:
#: the *attempt*-level objective is the detector — every transport pass
#: against a crashed super-peer is a bad SLI event, so its fast
#: burn-rate alert is what notices each crash; the *call*-level
#: objective is the verdict — it sees only the post-retry outcome the
#: client saw, so it separates the fragile series (budget exhausted)
#: from the resilient one (budget met) over the identical schedule.
FIG16_SLOS = (
    SLOSpec(
        name="rdm-attempt-availability", endpoint="glare-rdm.*",
        target=0.99,
        # threshold 1.0 = any sustained budget burn: with the detector
        # on, a takeover can mask a crash within one probe period, so
        # the weakest crash signature is only a handful of bad attempts
        # per window (~1.2-2.0x burn) while quiet-period noise stays
        # below 0.6x — 1.0 splits the two with margin on both sides
        alerts=(BurnRateRule("fast", window=30.0, threshold=1.0),),
    ),
    SLOSpec(
        name="client-availability", endpoint="glare-rdm.get_deployments",
        target=0.95, level=CALL, alerts=(),
    ),
)


@dataclass
class Fig16Point:
    """One series (resilient or fragile) over the churn schedule."""

    resilient: bool
    n_sites: int
    churn_rounds: int
    crashes: int
    resolutions: int
    resolution_failures: int
    provisions: int
    provision_failures: int
    reelections: int
    retries: int
    recovery_times: List[float] = field(default_factory=list)
    result_digest: str = ""
    # -- SLO extension (populated only when the run declared SLOs) ----------
    alerts_fired: int = 0
    detection_latencies: List[float] = field(default_factory=list)
    repair_times: List[float] = field(default_factory=list)
    undetected_crashes: int = 0
    slo_verdicts: Dict[str, str] = field(default_factory=dict)
    #: the rendered run report (CI artifact payload)
    report: str = ""

    @property
    def mean_detection_s(self) -> float:
        if not self.detection_latencies:
            return float("nan")
        return sum(self.detection_latencies) / len(self.detection_latencies)

    @property
    def mean_repair_s(self) -> float:
        if not self.repair_times:
            return float("nan")
        return sum(self.repair_times) / len(self.repair_times)

    @property
    def resolution_success_rate(self) -> float:
        if not self.resolutions:
            return float("nan")
        return 1.0 - self.resolution_failures / self.resolutions

    @property
    def provision_success_rate(self) -> float:
        if not self.provisions:
            return float("nan")
        return 1.0 - self.provision_failures / self.provisions

    @property
    def mean_recovery_s(self) -> float:
        if not self.recovery_times:
            return float("nan")
        return sum(self.recovery_times) / len(self.recovery_times)


def _pick_victim_group(vo, groups: Dict[str, List[str]]) -> Tuple[str, List[str]]:
    """The group all content is homed in: largest without the VO root.

    The community site must keep running (it hosts the community
    index every keepalive targets), so it is never in the crash path.
    """
    eligible = [sp for sp in sorted(groups) if vo.community_site not in groups[sp]]
    if not eligible:  # degenerate VO: fall back to any group
        eligible = sorted(groups)
    sp = max(eligible, key=lambda s: (len(groups[s]), s))
    return sp, sorted(groups[sp])


def run_fig16_point(
    resilient: bool,
    n_sites: int = 15,
    seed: int = 33,
    churn_times: Sequence[float] = (60.0, 150.0, 240.0),
    churn_downtime: float = 45.0,
    n_types: int = 3,
    n_clients: int = 4,
    resolve_start: float = 20.0,
    resolve_period: float = 8.0,
    resolve_rounds: int = 40,
    provision_times: Sequence[float] = (40.0, 75.0, 165.0, 255.0),
    slos: Tuple[SLOSpec, ...] = (),
) -> Fig16Point:
    """One series: the full workload under the churn schedule.

    With ``slos`` the VO carries the SLO engine and the returned point
    additionally reports burn-rate alerts, per-crash detection
    latencies (MTTD), incident repair times (MTTR) and the error-budget
    verdicts.  The default (no SLOs) is the churn pair,
    which both grids run at this full size.
    """
    vo = build_vo(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=False,  # every request exercises the overlay path
        group_size=GROUP_SIZE,
        monitors=False,  # isolate probe/takeover from the community sweep
        lifecycle=False,
        observability=Observability(enabled=False, slos=slos),
    )
    tracked = ""  # a content host of the victim group, once the overlay forms

    # Crash whoever leads the victim group at each churn time; chasing
    # the view of a content host follows takeovers across epochs.
    def churn_victim() -> Optional[str]:
        sp = vo.rdm(tracked).overlay.view.super_peer
        if sp and vo.network.is_online(sp) and sp != tracked:
            return sp
        return None

    def churn() -> Generator:
        for when in churn_times:
            if when > vo.sim.now:
                yield vo.sim.timeout(when - vo.sim.now)
            # outages overlap-safe: each crash/restart runs detached
            vo.sim.process(vo.faults.outage(churn_victim(), churn_downtime))

    # spawned before anything runs: its first wait is on the agenda at t=0
    vo.sim.process(churn(), name="fig16-churn")
    # The detector knob is the series switch; it must be set before the
    # election because probe loops start when the first view lands.
    interval = PROBE_INTERVAL if resilient else PROBE_DISABLED
    for name in vo.site_names:
        vo.rdm(name).overlay.probe_interval = interval
    groups = vo.form_overlay()

    victim_sp, victim_members = _pick_victim_group(vo, groups)
    ranked = sorted(
        (s for s in victim_members if s != victim_sp),
        key=lambda s: vo.stack(s).site.rank(),
        reverse=True,
    )
    # content hosts: the lowest-ranked members (the takeover chain works
    # down from the highest rank, so these are crashed last, if ever)
    homes = ranked[-2:] if len(ranked) >= 2 else ranked
    if not homes:
        raise ValueError("victim group has no non-super-peer member to home types on")
    tracked = homes[0]  # its view tells the churn loop who leads the group now

    # clients: plain members of *other* groups (their own super-peer
    # stays up; only the cross-group escalation crosses the churn)
    client_pool = [
        name
        for name in vo.site_names
        if name not in victim_members
        and name != vo.community_site
        and not vo.rdm(name).overlay.is_super_peer
    ]
    if not client_pool:
        raise ValueError("no eligible client sites outside the victim group")
    clients = [client_pool[i % len(client_pool)] for i in range(n_clients)]

    # -- content -------------------------------------------------------------
    type_names = [f"ChurnType{i:02d}" for i in range(n_types)]
    for i, type_name in enumerate(type_names):
        register_served_type(vo, homes[i % len(homes)], type_name, "churn")
    # provisioning rounds: installable catalog apps, *typed* only in
    # the victim group (no deployments anywhere — resolution must cross
    # groups to even learn the type, then install it on demand)
    prov_types = [PROVISION_APPS[i % len(PROVISION_APPS)]
                  for i in range(len(provision_times))]
    publish_applications(vo, names=sorted(set(prov_types)))
    for i, type_name in enumerate(prov_types):
        spec = get_application(type_name)
        vo.run_process(vo.client_call(
            homes[i % len(homes)], "register_type",
            payload={"xml": spec.type_xml},
        ))

    retry = RESOLVE_RETRY if resilient else None
    prov_retry = PROVISION_RETRY if resilient else None
    records: List[str] = []
    resolution_failures = 0
    provision_failures = 0

    def request(site: str, type_name: str, tag: str,
                auto_deploy: bool, policy: Optional[RetryPolicy]) -> Generator:
        outcome = yield from resolve(vo, site, type_name,
                                     auto_deploy=auto_deploy, retry=policy)
        ok = not outcome.startswith("error:")
        records.append(f"{site}|{type_name}|{tag}|{'ok:' if ok else ''}"
                       f"{outcome}|{vo.sim.now:.3f}")
        return ok

    def resolve_client(index: int) -> Generator:
        nonlocal resolution_failures
        site = clients[index]
        yield vo.sim.timeout(resolve_start + 0.5 * index)
        for round_no in range(resolve_rounds):
            type_name = type_names[(index + round_no) % n_types]
            ok = yield from request(site, type_name, f"r{round_no}",
                                    auto_deploy=False, policy=retry)
            if not ok:
                resolution_failures += 1
            yield vo.sim.timeout(resolve_period)

    def provision_client() -> Generator:
        nonlocal provision_failures
        site = clients[0]
        for round_no, when in enumerate(provision_times):
            if when > vo.sim.now:
                yield vo.sim.timeout(when - vo.sim.now)
            ok = yield from request(site, prov_types[round_no], f"p{round_no}",
                                    auto_deploy=True, policy=prov_retry)
            if not ok:
                provision_failures += 1

    procs = [vo.sim.process(resolve_client(i), name=f"fig16-client-{i}")
             for i in range(len(clients))]
    procs.append(vo.sim.process(provision_client(), name="fig16-provision"))
    vo.sim.run(until=vo.sim.all_of(procs))
    # let any trailing restart from the last churn round land
    vo.sim.run(until=vo.sim.now + churn_downtime)

    journal = vo.sim.journal
    crash_events = entries(journal, "faults", "crash")
    takeovers = entries(journal, "overlay", "takeover")
    recovery_times: List[float] = []
    for crash in crash_events:
        for takeover in takeovers:
            if takeover["missing"] == crash["site"] and takeover["at"] >= crash["at"]:
                recovery_times.append(takeover["at"] - crash["at"])
                break

    # -- SLO extension: detection/repair analytics + rendered report ---------
    alerts_fired = 0
    detection_latencies: List[float] = []
    repair_times: List[float] = []
    undetected = 0
    verdicts: Dict[str, str] = {}
    report = ""
    if vo.obs.slo is not None:
        from repro.obs.export import render_run_report

        engine = vo.obs.slo
        engine.evaluate()  # final tick: resolve anything still burning
        alerts_fired = engine.alerts_fired()
        verdicts = engine.verdicts()
        for rec in detection_timeline(journal):
            if rec.mttd is None:
                undetected += 1
                continue
            detection_latencies.append(rec.mttd)
            if rec.mttr is not None:
                repair_times.append(rec.mttr)
        series = "resilient" if resilient else "fragile"
        report = (f"fig16 SLO extension — {series} series\n\n"
                  + render_run_report(vo))

    return Fig16Point(
        resilient=resilient,
        n_sites=n_sites,
        churn_rounds=len(churn_times),
        crashes=len(crash_events),
        resolutions=len(clients) * resolve_rounds,
        resolution_failures=resolution_failures,
        provisions=len(provision_times),
        provision_failures=provision_failures,
        reelections=sum(vo.rdm(n).overlay.reelections for n in vo.site_names),
        retries=vo.network.retries_total,
        recovery_times=recovery_times,
        result_digest=records_digest(records),
        alerts_fired=alerts_fired,
        detection_latencies=detection_latencies,
        repair_times=repair_times,
        undetected_crashes=undetected,
        slo_verdicts=verdicts,
        report=report,
    )


def format_fig16_slo(fragile: Fig16Point, resilient: Fig16Point) -> str:
    """Render the detection/verdict comparison of the SLO pair."""
    headers = [
        "series", "crashes", "alerts", "detected", "mean-MTTD-s",
        "mean-MTTR-s", "attempt-SLO", "call-SLO",
    ]
    rows = []
    for p in (fragile, resilient):
        detected = p.crashes - p.undetected_crashes
        rows.append([
            "resilient" if p.resilient else "fragile",
            p.crashes,
            p.alerts_fired,
            f"{detected}/{p.crashes}",
            ("-" if not p.detection_latencies else f"{p.mean_detection_s:.1f}"),
            ("-" if not p.repair_times else f"{p.mean_repair_s:.1f}"),
            p.slo_verdicts.get("rdm-attempt-availability", "-"),
            p.slo_verdicts.get("client-availability", "-"),
        ])
    out = [format_table(
        headers, rows,
        title="Fig. 16 (SLO extension) — crash detection and error budgets",
    )]
    for p in (fragile, resilient):
        if p.detection_latencies:
            series = "resilient" if p.resilient else "fragile"
            mttds = ", ".join(f"{t:.1f}s" for t in p.detection_latencies)
            mttrs = (", ".join(f"{t:.1f}s" for t in p.repair_times)
                     if p.repair_times else "-")
            out.append(f"{series} detection latencies: {mttds}; "
                       f"incident repair times: {mttrs}")
    out.append(
        "attempt-SLO = server-side availability per pipeline pass (its "
        "burn-rate alert is the crash detector); call-SLO = what clients "
        "saw after retries — met for the resilient series, exhausted for "
        "the fragile one."
    )
    return "\n".join(out)


def format_fig16(points: List[Fig16Point]) -> str:
    """Render the comparison table + recovery detail."""
    headers = [
        "series", "sites", "crashes", "resolutions", "res-success",
        "provisions", "prov-success", "re-elections", "retries",
        "mean-recovery-s",
    ]
    rows = []
    for p in points:
        rows.append([
            "resilient" if p.resilient else "fragile",
            p.n_sites,
            p.crashes,
            p.resolutions,
            f"{100.0 * p.resolution_success_rate:.1f}%",
            p.provisions,
            f"{100.0 * p.provision_success_rate:.1f}%",
            p.reelections,
            p.retries,
            ("-" if not p.recovery_times else f"{p.mean_recovery_s:.1f}"),
        ])
    out = [format_table(
        headers, rows,
        title="Fig. 16 — resolution + provisioning under super-peer churn",
    )]
    for p in points:
        if p.recovery_times:
            series = "resilient" if p.resilient else "fragile"
            times = ", ".join(f"{t:.1f}s" for t in p.recovery_times)
            out.append(f"{series} takeover latencies: {times}")
    out.append(
        "fragile = no failure detector, single-attempt clients; "
        "resilient = probe/takeover + client retry policies."
    )
    return "\n".join(out)


#: the --quick shape of the SLO pair (the churn pair is full size in
#: both grids: under a second, and its digests are the full-size pin)
_QUICK = dict(
    n_sites=10, churn_downtime=40.0, n_clients=3, resolve_start=15.0,
    resolve_period=8.0, resolve_rounds=20,
    provision_times=(25.0, 50.0, 120.0),
)


def _units(grid: Dict[str, Dict]) -> List[WorkUnit]:
    """Fragile, resilient and a resilient repeat — for the digest-pinned
    churn pair and again for the SLO-instrumented pair."""
    return [
        WorkUnit(f"fig16:{pair}{series}",
                 "repro.experiments.fig16:run_fig16_point",
                 dict(kwargs, resilient=series != "fragile"))
        for pair, kwargs in (("", grid["churn"]), ("slo:", grid["slo"]))
        for series in ("fragile", "resilient", "resilient-repeat")
    ]


def _check(results: Results) -> None:
    fragile, resilient = results["fig16:fragile"], results["fig16:resilient"]
    for what in ("resolution", "provision"):
        rate = getattr(resilient, f"{what}_success_rate")
        assert rate >= 0.95, (
            f"fig16: resilient {what} success below 0.95: {rate:.3f}")
    assert fragile.resolution_success_rate < resilient.resolution_success_rate, (
        f"fig16: fragile resolution success not below resilient: "
        f"{fragile.resolution_success_rate:.3f} vs "
        f"{resilient.resolution_success_rate:.3f}")
    assert resilient.reelections >= 1, (
        f"fig16: no takeover in the resilient series: "
        f"{resilient.reelections} re-elections")
    assert fragile.reelections == 0, (
        f"fig16: takeover with the detector disabled: "
        f"{fragile.reelections} re-elections")
    for series, verdict in (("fragile", "exhausted"), ("resilient", "met")):
        got = results[f"fig16:slo:{series}"].slo_verdicts.get("client-availability")
        assert got == verdict, (
            f"fig16: {series} client-availability verdict is not "
            f"{verdict!r}: {got!r}")
    for series in ("fragile", "resilient"):
        point = results[f"fig16:slo:{series}"]
        if point.crashes and point.undetected_crashes:
            raise AssertionError(
                f"fig16 SLO extension: {point.undetected_crashes} of "
                f"{point.crashes} crashes went undetected in the "
                f"{series} series (alerts fired: {point.alerts_fired})"
            )


def _slo_text(results: Results) -> str:
    return format_fig16_slo(results["fig16:slo:fragile"],
                            results["fig16:slo:resilient"])


def _render(results: Results) -> str:
    pair = [results["fig16:fragile"], results["fig16:resilient"]]
    return format_fig16(pair) + "\n\n" + _slo_text(results)


def _report(results: Results) -> str:
    """The SLO pair's table plus both rendered health/SLO reports."""
    return (_slo_text(results) + "\n\n" + results["fig16:slo:fragile"].report
            + "\n\n" + results["fig16:slo:resilient"].report + "\n")


EXPERIMENT = Experiment(
    name="fig16",
    summary="request success under super-peer churn, fragile vs resilient, "
            "plus the health/SLO judgements",
    quick={"churn": {},
           "slo": dict(_QUICK, churn_times=(40.0, 140.0), slos=FIG16_SLOS)},
    full={"churn": {},
          "slo": dict(churn_times=(60.0, 170.0, 280.0), slos=FIG16_SLOS)},
    units=_units,
    repeats={"fig16:resilient-repeat": "fig16:resilient",
             "fig16:slo:resilient-repeat": "fig16:slo:resilient"},
    check=_check,
    render=_render,
    report=_report,
)
