"""GridARM resource brokerage: ranking deployments for a scheduler.

The paper positions GLARE "in combination with GridARM's resource
brokerage and advanced reservation" as the base of the workflow
management system.  This module supplies the brokerage half: given the
candidate deployments GLARE resolved for an activity type, rank them by

* the hosting site's *current load* (1-minute load average per core,
  fetched live through the RDM's ``site_load`` operation),
* the activity type's *benchmark* score for the site's platform
  (declared in the type document, paper §3.1), and
* observed history (a deployment whose last execution failed ranks
  below one that succeeded).

The workflow scheduler uses a :class:`ResourceBroker` when constructed
with ``policy="load-aware"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.glare.errors import CLIENT_ERRORS
from repro.glare.model import ActivityDeployment, ActivityType


@dataclass
class RankedDeployment:
    """One candidate with its brokerage score (lower is better)."""

    deployment: ActivityDeployment
    load_per_core: float
    benchmark: float
    penalty: float

    @property
    def score(self) -> float:
        # load dominates; benchmarks discount it; failures penalise
        return self.load_per_core / max(self.benchmark, 0.1) + self.penalty


class ResourceBroker:
    """Ranks candidate deployments using live site load + benchmarks."""

    def __init__(self, vo, home_site: str, probe_timeout: float = 5.0) -> None:
        self.vo = vo
        self.home_site = home_site
        self.probe_timeout = probe_timeout
        self.probes = 0

    def site_load(self, site: str) -> Generator:
        """Live load snapshot of ``site`` (None when unreachable)."""
        try:
            info = yield from self.vo.network.call(
                self.home_site, site, "glare-rdm", "site_load",
                timeout=self.probe_timeout,
            )
            self.probes += 1
            return info
        except CLIENT_ERRORS:
            return None

    def rank(
        self,
        candidates: List[ActivityDeployment],
        activity_type: Optional[ActivityType] = None,
    ) -> Generator:
        """Rank candidates best-first; unreachable sites drop out."""
        load_cache: Dict[str, Optional[dict]] = {}
        ranked: List[RankedDeployment] = []
        for deployment in candidates:
            if deployment.site not in load_cache:
                load_cache[deployment.site] = yield from self.site_load(
                    deployment.site
                )
            info = load_cache[deployment.site]
            if info is None:
                continue  # site down: not a candidate
            cores = max(info.get("cores", 1), 1)
            load_per_core = info.get("load", 0.0) / cores
            benchmark = 1.0
            if activity_type is not None and activity_type.benchmarks:
                benchmark = activity_type.benchmarks.get(
                    info.get("platform", "any"),
                    max(activity_type.benchmarks.values()),
                )
            penalty = 0.0
            if deployment.last_return_code not in (None, 0):
                penalty += 10.0  # recent failure: strongly disprefer
            if not deployment.usable:
                penalty += 100.0
            ranked.append(
                RankedDeployment(
                    deployment=deployment,
                    load_per_core=load_per_core,
                    benchmark=benchmark,
                    penalty=penalty,
                )
            )
        ranked.sort(key=lambda r: (r.score, r.deployment.site, r.deployment.name))
        return ranked
