"""The one place the end-to-end benchmark touches ``repro``.

Every name the benchmark uses from the program under test is imported
here and nowhere else, so a refactor of ``src/repro`` that keeps this
surface keeps the benchmark — and one that breaks it breaks exactly
this import, loudly, before anything is timed.

Surface (all public names of their packages):

* ``repro.vo``            — ``build_vo``
* ``repro.simkernel``     — ``Simulator``
* ``repro.net``           — ``Network``, ``Topology``, ``EchoService``,
  ``RetryPolicy``, ``Overloaded``, ``RpcTimeout``, ``estimate_size``
* ``repro.wsrf``          — ``XPathQuery``, ``parse_xml``
* ``repro.mds``           — ``MDS_SERVICE`` (the index's service name)
* ``repro.glare``         — ``RDM_SERVICE``, ``ATR_SERVICE``,
  ``ResolutionConfig``, ``ProvisioningConfig``, ``StorageConfig``,
  ``DictBackend``, ``ActivityType``, ``ActivityDeployment``,
  ``DeploymentKind``, ``DeploymentStatus``
* ``repro.apps``          — ``get_application``, ``publish_applications``,
  ``base_hierarchy_types``
* ``repro.load``          — ``PoissonProcess``, ``CohortInjector``,
  ``StreamStats``
* ``repro.obs``           — ``Observability``, ``SLOSpec``, ``Tracer``,
  ``MetricsRegistry``, ``self_time_breakdown``
* ``repro.orchestrate``   — ``Planner``, ``Observed``, ``SiteObservation``,
  ``DeploymentSpec``

``SRC_ROOT`` and ``BENCH_ROOT`` are the directories the profiler ledger
uses to tell the program's frames from the benchmark's own.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parent
SRC_ROOT = BENCH_ROOT.parents[1] / "src"

if str(SRC_ROOT) not in sys.path:
    sys.path.insert(0, str(SRC_ROOT))

from repro.apps import (  # noqa: E402
    base_hierarchy_types,
    get_application,
    publish_applications,
)
from repro.glare.model import (  # noqa: E402
    ActivityDeployment,
    ActivityType,
    DeploymentKind,
    DeploymentStatus,
)
from repro.glare.provisioning import ProvisioningConfig  # noqa: E402
from repro.glare.rdm import RDM_SERVICE  # noqa: E402
from repro.glare.registry import ATR_SERVICE  # noqa: E402
from repro.glare.resolution import ResolutionConfig  # noqa: E402
from repro.glare.storage import DictBackend, StorageConfig  # noqa: E402
from repro.load import (  # noqa: E402
    CohortInjector,
    PoissonProcess,
    StreamStats,
)
from repro.mds.index import IndexService  # noqa: E402
from repro.net.interceptors import Overloaded, RetryPolicy, RpcTimeout  # noqa: E402
from repro.net.message import estimate_size  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.net.service import EchoService  # noqa: E402
from repro.net.topology import Topology  # noqa: E402
from repro.obs import Observability, SLOSpec, Tracer  # noqa: E402
from repro.obs.analyze import self_time_breakdown  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.orchestrate.planner import Observed, Planner, SiteObservation  # noqa: E402
from repro.orchestrate.spec import DeploymentSpec  # noqa: E402
from repro.simkernel import Simulator  # noqa: E402
from repro.vo import build_vo  # noqa: E402
from repro.wsrf import XPathQuery, parse_xml  # noqa: E402

MDS_SERVICE = IndexService.SERVICE_NAME

__all__ = [
    "ATR_SERVICE",
    "ActivityDeployment",
    "ActivityType",
    "BENCH_ROOT",
    "CohortInjector",
    "DeploymentKind",
    "DeploymentSpec",
    "DeploymentStatus",
    "DictBackend",
    "EchoService",
    "MDS_SERVICE",
    "MetricsRegistry",
    "Network",
    "Observability",
    "Observed",
    "Overloaded",
    "Planner",
    "PoissonProcess",
    "ProvisioningConfig",
    "RDM_SERVICE",
    "ResolutionConfig",
    "RetryPolicy",
    "RpcTimeout",
    "SLOSpec",
    "SRC_ROOT",
    "Simulator",
    "SiteObservation",
    "StorageConfig",
    "StreamStats",
    "Topology",
    "Tracer",
    "XPathQuery",
    "build_vo",
    "base_hierarchy_types",
    "estimate_size",
    "get_application",
    "parse_xml",
    "publish_applications",
    "self_time_breakdown",
]
