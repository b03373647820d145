"""The Grid-site aggregate: runtime + description + filesystem + env.

One :class:`GridSite` corresponds to one Austrian-Grid site in the
paper: a network node (CPU, deployed services, online flag), the static
attributes used for election ranking, a filesystem deployments are
installed into, and the default environment variables the RDM service
substitutes into deploy-files (paper §3.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.service import Plane
from repro.site.description import SiteDescription
from repro.site.filesystem import Filesystem
from repro.simkernel.cpu import LoadAverage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network, NodeRuntime


class GridSite(Plane):
    """A simulated Grid site."""

    def __init__(
        self,
        network: "Network",
        description: SiteDescription,
        globus_location: str = "/opt/globus",
    ) -> None:
        self.network = network
        self.description = description
        self.runtime: "NodeRuntime" = network.add_node(
            description.name,
            cores=description.processors,
            speed=description.speed_factor,
        )
        self.runtime.planes.append(self)
        self.fs = Filesystem()
        # Standard directory layout + the default env vars of paper §3.4.
        self.fs.mkdir_p("/home/glare")
        self.fs.mkdir_p("/scratch")
        self.fs.mkdir_p("/opt/deployments")
        self.fs.mkdir_p(globus_location + "/bin")
        self.env: Dict[str, str] = {
            "DEPLOYMENT_DIR": "/opt/deployments",
            "USER_HOME": "/home/glare",
            "GLOBUS_SCRATCH_DIR": "/scratch",
            "GLOBUS_LOCATION": globus_location,
        }
        self.loadavg = LoadAverage(network.sim, self.runtime.cpu)

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.description.name

    @property
    def sim(self):
        return self.network.sim

    @property
    def cpu(self):
        return self.runtime.cpu

    def rank(self) -> int:
        """The election rank hashcode of this site."""
        return self.description.rank_hashcode()

    # -- liveness ------------------------------------------------------------

    @property
    def online(self) -> bool:
        return self.runtime.online

    # -- monitoring ------------------------------------------------------------

    def loops(self):
        return (self.loadavg,)

    # -- environment ------------------------------------------------------------

    def substituter(self, extra: Optional[Dict[str, str]] = None) -> Callable[[str], str]:
        """A function replacing ``$VAR`` / ``${VAR}`` references with
        site environment values, compiled once for one environment.

        The RDM service "substitutes their values" for the default
        variables; ``extra`` lets a deploy-file add its own (paper
        Fig. 9 defines e.g. ``POVRAY_HOME = $DEPLOYMENT_DIR/povray/``,
        i.e. definitions may reference other variables).  Longer names
        are substituted first so ``$DEPLOYMENT_DIR`` wins over
        ``$DEPLOY``; substitution iterates to a fixpoint (bounded) so
        nested definitions resolve fully.
        """
        table = dict(self.env)
        if extra:
            table.update(extra)
        patterns = [
            (f"${{{key}}}", f"${key}", table[key])
            for key in sorted(table, key=len, reverse=True)
        ]

        def substitute(text: str) -> str:
            for _ in range(5):  # bounded fixpoint: no runaway on cycles
                if "$" not in text:  # every pattern starts with one
                    break
                before = text
                for braced, bare, value in patterns:
                    if braced in text:
                        text = text.replace(braced, value)
                    if bare in text:
                        text = text.replace(bare, value)
                if text == before:
                    break
            return text

        return substitute

    def substitute_env(self, text: str, extra: Optional[Dict[str, str]] = None) -> str:
        """One-off :meth:`substituter`: ``text`` with its references replaced."""
        return self.substituter(extra)(text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GridSite {self.name} cores={self.description.processors}>"
