"""Orchestration must be invisible until opted into.

* **no specs, no reconciler** — ``VOConfig.orchestration`` defaults to
  no specs, which builds no reconciler process at all; one spec builds
  one;
* **fingerprint gates** — with no specs (every experiment's default but
  fig19's), every committed determinism fingerprint in the
  ``perf.SUITES`` table stays byte-identical to its ``BENCH_*.json``
  baseline (the experiments' own outputs are pinned by their merged
  digests in ``tests/experiments/test_output_identity.py``).
"""

import json
from pathlib import Path

import pytest

from repro.orchestrate.spec import DeploymentSpec

from tests.test_perf_harness import PINNED

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the pinned top-level sections (a dotted ``Exact`` path pins one counter)
FINGERPRINTS = {suite: section for suite, section in PINNED.items()
                if "." not in section}


class TestInertConfigIsInvisible:
    def test_default_vo_config_has_no_orchestration(self):
        from repro.vo import VOConfig, build_vo

        assert VOConfig().orchestration == ()
        vo = build_vo(VOConfig(seed=7, n_sites=4, monitors=False))
        assert vo.stack(vo.community_site).agent.reconciler is None

    def test_enabled_config_builds_a_reconciler(self):
        from repro.vo import VOConfig, build_vo

        specs = (DeploymentSpec(type_name="Wien2k", avoid_sites=("agrid00",)),)
        vo = build_vo(VOConfig(seed=7, n_sites=4, monitors=False,
                               lifecycle=True, orchestration=specs))
        reconciler = vo.stack(vo.community_site).agent.reconciler
        assert reconciler is not None
        assert reconciler.managed_types == ["Wien2k"]


@pytest.mark.parametrize("suite", list(FINGERPRINTS))
def test_fingerprints_match_committed_baselines(suite, fresh_suites):
    """Two-way: every committed key still matches *and* no key has
    appeared that the committed baseline does not pin yet."""
    section = FINGERPRINTS[suite]
    with (REPO_ROOT / f"BENCH_{suite}.json").open() as handle:
        expected = json.load(handle)[section]
    current = fresh_suites[suite][section]
    assert set(current) == set(expected)
    for key in sorted(expected):
        assert current[key] == expected[key], f"{suite}: drift in {key}"
