"""Canned traced scenarios behind ``python -m repro report SCENARIO``.

Full paper experiments sweep hundreds of configurations; tracing one of
those produces an unreadable wall of spans.  These scenarios instead
run one *representative* workload each on a small observability-enabled
VO, so the run report can show complete, comprehensible traces and
metrics:

* ``deploy``   — a client resolves an undeployed activity type,
  triggering the full on-demand provisioning pipeline (Example 3 +
  §2.2): tier walk, candidate selection, deploy-file transfer,
  handler execution, registration, admin notification.
* ``lookup``   — the same resolution twice: the first request installs,
  the second is served from the site cache (the Fig. 12 contrast).
* ``election`` — the two-phase super-peer election plus one resolution
  over the formed overlay.
* ``churn``    — a crash/restart of the activity type's home site under
  a retrying client workload, with SLOs declared: the burn-rate alert
  fires during the outage, the health fold shows the node ``down`` from
  its crash until its restart, and the error-budget table shows
  the attempt-level objective burning while the call-level one holds.

Each scenario returns the finished :class:`~repro.vo.VirtualOrganization`
with its tracer and metrics registry populated (and, for ``churn``, the
SLO engine).  :func:`run_scenario` audits it and raises on any broken
clause, such as a span left open by a *dead* process (an error-path
leak).

This module imports :mod:`repro.vo` and must therefore only be loaded
lazily (the CLI does); the rest of :mod:`repro.obs` stays a leaf
package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.invariants import audit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vo import VirtualOrganization


def _default_slos():
    """The objectives every scenario declares over the RDM frontend."""
    from repro.obs.slo import BurnRateRule, SLOSpec

    return (
        SLOSpec(name="rdm-attempts", endpoint="glare-rdm.*", target=0.99,
                alerts=(BurnRateRule("fast", window=30.0, threshold=2.0),)),
        SLOSpec(name="rdm-calls", endpoint="glare-rdm.get_deployments",
                target=0.95, level="call", alerts=()),
    )


def _build(n_sites: int = 4, seed: int = 7, **overrides) -> "VirtualOrganization":
    from repro.apps import publish_applications
    from repro.obs import Observability
    from repro.vo import build_vo

    vo = build_vo(n_sites=n_sites, seed=seed, monitors=False,
                  observability=Observability(sample_interval=2.0,
                                              slos=_default_slos()),
                  **overrides)
    publish_applications(vo, ["Wien2k"])
    return vo


def _register_wien2k(vo: "VirtualOrganization", site: str) -> None:
    from repro.apps import get_application

    spec = get_application("Wien2k")
    vo.run_process(vo.client_call(site, "register_type",
                                  payload={"xml": spec.type_xml}))


def scenario_deploy() -> "VirtualOrganization":
    """One resolution that ends in an on-demand installation."""
    vo = _build()
    vo.form_overlay()
    _register_wien2k(vo, "agrid01")
    vo.run_process(vo.client_call("agrid02", "get_deployments",
                                  payload="Wien2k"))
    return vo


def scenario_lookup() -> "VirtualOrganization":
    """Install once, then resolve again from the warm cache."""
    vo = _build()
    vo.form_overlay()
    _register_wien2k(vo, "agrid01")
    for _ in range(2):
        vo.run_process(vo.client_call("agrid02", "get_deployments",
                                      payload="Wien2k"))
    return vo


def scenario_election() -> "VirtualOrganization":
    """Trace the super-peer election itself, then one resolution."""
    vo = _build(n_sites=6)
    _register_wien2k(vo, "agrid01")
    vo.form_overlay()
    vo.run_process(vo.client_call("agrid03", "get_deployments",
                                  payload="Wien2k"))
    return vo


def scenario_churn() -> "VirtualOrganization":
    """Crash the type's home site under a retrying client workload.

    The type home (``agrid01``) goes down at t=40 for 30 s with site
    caching off, so every resolution during the outage hits the dead
    node: attempt-level SLO events go bad, the fast burn-rate alert
    fires, and the report's health fold shows the node ``down``.  The
    client retries each request, so after the restart the node is
    ``up`` again and the alert resolves.
    """
    from repro.faults import CrashSpec, FaultsConfig
    from repro.glare.errors import CLIENT_ERRORS
    from repro.net.interceptors import RetryPolicy

    vo = _build(
        cache_enabled=False,
        faults=FaultsConfig(crashes=(CrashSpec("agrid01", at=40.0,
                                               down_for=30.0),)),
        rpc_retry=RetryPolicy(attempts=3, per_try_timeout=5.0,
                              base_delay=0.5),
    )
    vo.form_overlay()
    _register_wien2k(vo, "agrid01")

    def client():
        for _ in range(50):
            try:
                yield from vo.client_call("agrid02", "get_deployments",
                                          payload="Wien2k")
            except CLIENT_ERRORS:
                pass  # the outage window: failures are the point
            yield vo.sim.timeout(2.0)

    vo.sim.process(client(), name="churn-client")
    vo.sim.run(until=140.0)
    return vo


SCENARIOS: Dict[str, Callable[[], "VirtualOrganization"]] = {
    "deploy": scenario_deploy,
    "lookup": scenario_lookup,
    "election": scenario_election,
    "churn": scenario_churn,
}


def run_scenario(name: str) -> "VirtualOrganization":
    """Run one named scenario; raises ``KeyError`` for unknown names.

    Also audits the finished VO (:func:`repro.invariants.audit`): a
    broken clause — say, a span an error path left open in a dead
    process — raises here rather than silently skewing the report.
    """
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    vo = runner()
    violations = audit(vo.network)
    if violations:
        raise AssertionError(
            f"scenario {name!r} broke {len(violations)} audit clause(s): "
            + "; ".join(f"{plane} {clause!r}: {detail}"
                        for plane, clause, detail in violations[:5]))
    return vo
