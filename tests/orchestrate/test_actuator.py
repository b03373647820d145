"""``RdmActuator.install`` absorbs what a client can be told, nothing else."""

from types import SimpleNamespace

import pytest

from repro.orchestrate.actuator import RdmActuator
from repro.simkernel import Simulator
from repro.simkernel.errors import OfflineError


def _install(error):
    """Run one ``install`` whose rollout raises ``error``; return its status."""
    sim = Simulator(seed=1)

    def discover_type(name):
        yield sim.timeout(1.0)
        return name

    def rollout(activity_type, target_sites, fanout):
        yield sim.timeout(1.0)
        raise error

    rdm = SimpleNamespace(
        request_manager=SimpleNamespace(discover_type=discover_type),
        deployment_manager=SimpleNamespace(rollout=rollout),
    )
    install = sim.process(RdmActuator(rdm).install("Wien2k", "agrid02"))
    sim.run()
    return install.value


def test_an_unreachable_site_is_a_failed_install():
    """The reconciler observes ``"failed"`` and tries again next round."""
    assert _install(OfflineError("agrid02 is offline")) == "failed"


def test_a_bug_in_the_rollout_propagates():
    with pytest.raises(TypeError, match="bad call"):
        _install(TypeError("bad call"))
