"""Desired-state orchestration: spec → planner → reconciler → actuator.

GLARE's on-demand pipeline installs an activity type when a request
misses; this package adds the complementary production shape —
*continuous reconciliation toward a declared desired state* — after the
Service Grid capacity-planner/orchestrator split:

* :mod:`~repro.orchestrate.spec` — the declarative layer: a frozen
  :class:`DeploymentSpec` per activity type (replica bounds, target
  utilization, placement constraints) and the off-by-default
  :class:`OrchestrationConfig` that :func:`repro.vo.build_vo` threads
  through.
* :mod:`~repro.orchestrate.planner` — a *pure* capacity planner: specs
  + observed site gauges (utilization, load, run-queue depth, shed
  counts, health states) in, placement plan out.  No simulator access,
  no randomness, no mutation.
* :mod:`~repro.orchestrate.actuator` — the mechanism boundary: the
  :class:`Actuator` interface over the Deployment Manager's probe /
  install / rollout machinery plus WSRF lifetime control.
* :mod:`~repro.orchestrate.agent` — the per-site end: the
  :class:`SiteAgent` every RDM service carries, with the three
  operations the actuator calls (``report_observed``, ``apply_spec``,
  ``set_deployment_lifetime``) and the replicated desired state.
* :mod:`~repro.orchestrate.reconciler` — the control loop: a simulation
  process that each interval observes deployments, asks the planner for
  a plan, and actuates the diff — scale-out through ``rollout``,
  scale-in by shortening WSRF resource lifetimes so the per-site
  :class:`~repro.wsrf.lifetime.LifetimeManager` garbage-collects
  drained replicas.

Policy/mechanism split: the reconciler is the **only writer** of
desired state (``SiteAgent.desired_state``, replicated via
``op_apply_spec`` so reconciliation survives super-peer takeover);
the Deployment Manager keeps mechanism only.
"""

from repro.orchestrate.actuator import Actuator, RdmActuator
from repro.orchestrate.agent import SiteAgent
from repro.orchestrate.planner import (
    Observed,
    Plan,
    Planner,
    SiteObservation,
    TypePlan,
)
from repro.orchestrate.reconciler import Reconciler, RoundRecord
from repro.orchestrate.spec import DeploymentSpec, DesiredState, OrchestrationConfig

__all__ = [
    "Actuator",
    "DeploymentSpec",
    "DesiredState",
    "Observed",
    "OrchestrationConfig",
    "Plan",
    "Planner",
    "RdmActuator",
    "Reconciler",
    "RoundRecord",
    "SiteAgent",
    "SiteObservation",
    "TypePlan",
]
