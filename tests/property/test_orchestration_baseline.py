"""Orchestration must be invisible until opted into.

Two layers of guarantee:

* **scenario-pair identity** — a VO built with an inert
  ``OrchestrationConfig()`` (no specs) runs the exact same seeded
  workload to the exact same address-normalized kernel trace, message
  totals and clock as a VO built with ``orchestration=None``;
* **fingerprint gates** — with the config absent (every experiment's
  default), every committed determinism fingerprint in the
  ``perf.SUITES`` table stays byte-identical to its ``BENCH_*.json``
  baseline.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import perf
from repro.orchestrate.spec import DeploymentSpec, OrchestrationConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

_ADDR = re.compile(r"0x[0-9a-f]+")


def _run_pair_workload(orchestration):
    """Build a small VO and drive a fixed resolve/install workload."""
    from repro.apps import get_application, publish_applications
    from repro.stats import collect_metrics
    from repro.vo import VOConfig, build_vo

    vo = build_vo(VOConfig(seed=7, n_sites=4, monitors=False,
                           lifecycle=True, orchestration=orchestration))
    vo.sim.trace = True
    publish_applications(vo, ["Wien2k"])
    vo.form_overlay()
    spec = get_application("Wien2k")
    vo.run_process(vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml}))
    for site in ("agrid02", "agrid03", "agrid02"):
        vo.run_process(vo.client_call(site, "get_deployments",
                                      payload="Wien2k"))
    vo.sim.run(until=vo.sim.now + 30.0)
    normalized = "\n".join(
        f"{when:.9f} {_ADDR.sub('0x0', label)}" for when, label in vo.sim.trace_log
    )
    snapshot = collect_metrics(vo)
    return {
        "trace_sha": hashlib.sha256(normalized.encode()).hexdigest(),
        "events": len(vo.sim.trace_log),
        "final_time": repr(vo.sim.now),
        "messages": snapshot.total_messages,
        "bytes": snapshot.total_bytes,
        "reconciler_absent": vo.reconciler is None,
    }


class TestInertConfigIsInvisible:
    def test_default_vo_config_has_no_orchestration(self):
        from repro.vo import VOConfig

        assert VOConfig().orchestration is None

    def test_default_orchestration_config_is_inert(self):
        assert OrchestrationConfig().any_enabled is False
        assert OrchestrationConfig(
            specs=(DeploymentSpec(type_name="X"),)
        ).any_enabled is True

    def test_inert_config_traces_byte_identical_to_none(self):
        baseline = _run_pair_workload(None)
        inert = _run_pair_workload(OrchestrationConfig())
        assert baseline["reconciler_absent"]
        assert inert["reconciler_absent"]
        assert inert == baseline

    def test_enabled_config_builds_a_reconciler(self):
        from repro.vo import VOConfig, build_vo

        cfg = OrchestrationConfig(
            specs=(DeploymentSpec(type_name="Wien2k", avoid_sites=("agrid00",)),),
            interval=5.0,
        )
        vo = build_vo(VOConfig(seed=7, n_sites=4, monitors=False,
                               lifecycle=True, orchestration=cfg))
        assert vo.reconciler is not None
        assert vo.reconciler.managed_types == ["Wien2k"]


@pytest.mark.parametrize("suite", list(perf.SUITES))
def test_fingerprints_match_committed_baselines(suite, quick_suites):
    """Two-way: every committed key still matches *and* no key has
    appeared that the committed baseline does not pin yet."""
    section = next(gate.path for gate in perf.SUITES[suite].gates
                   if isinstance(gate, perf.Exact))
    with (REPO_ROOT / f"BENCH_{suite}.json").open() as handle:
        expected = json.load(handle)[section]
    current = quick_suites[suite][section]
    assert set(current) == set(expected)
    for key in sorted(expected):
        assert current[key] == expected[key], f"{suite}: drift in {key}"
