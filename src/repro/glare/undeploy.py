"""Un-deployment: removing installed activities (paper §6 future work).

"We are considering to add features of un-deployment ..." — this module
implements that feature: removing a single deployment (registry entry +
installed files), or a whole activity type from a site (all its local
deployments plus, optionally, the type registration itself).  Remote
caches converge through the normal Cache Refresher path: the source's
resource disappears, so cached copies are discarded on the next
revalidation cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List

from repro.glare.errors import DeploymentNotFound
from repro.glare.model import DeploymentKind
from repro.net.message import Message
from repro.site.filesystem import FilesystemError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService


class Undeployer:
    """Per-site un-deployment logic and its two operations, hosted by
    (and attached to) the RDM service."""

    def __init__(self, rdm: "GlareRDMService") -> None:
        self.rdm = rdm
        self.undeployed = 0

    def undeploy(self, key: str, remove_files: bool = True) -> Generator:
        """Remove one local deployment; returns a summary dict."""
        adr = self.rdm.adr
        deployment = adr.deployments.get(key)
        if deployment is None:
            raise DeploymentNotFound(
                f"no local deployment {key!r} on {self.rdm.node_name}"
            )
        files_removed = 0
        if (
            remove_files
            and deployment.kind == DeploymentKind.EXECUTABLE
            and deployment.home
        ):
            # removing the home wipes every deployment sharing it; that
            # matches how installations are laid out (one home per type)
            try:
                files_removed = self.rdm.site.fs.rmtree(deployment.home)
            except FilesystemError:
                files_removed = 0
            else:
                # archive copies under the home were replica sources for
                # other sites' downloads: delist them with the files
                self.rdm.gridftp.url_catalog.discard_replicas_under(
                    self.rdm.node_name, deployment.home
                )
        # deregister through the local ADR (loopback RPC, so the cost
        # and the LUT bookkeeping follow the normal path)
        yield from self.rdm.network.call(
            self.rdm.node_name, self.rdm.node_name, adr.name,
            "remove_deployment", payload=key,
        )
        self.undeployed += 1
        return {
            "undeployed": key,
            "files_removed": files_removed,
            "site": self.rdm.node_name,
        }

    def undeploy_type(self, type_name: str, remove_type: bool = False,
                      remove_files: bool = True) -> Generator:
        """Remove every local deployment of ``type_name``.

        ``remove_type`` additionally drops the type registration from
        the local ATR (a provider withdrawing the activity entirely).
        """
        adr = self.rdm.adr
        removed: List[Dict] = []
        for deployment in list(adr.local_deployments_for(type_name)):
            summary = yield from self.undeploy(
                deployment.key, remove_files=remove_files
            )
            removed.append(summary)
        type_removed = False
        if remove_type and self.rdm.atr.home.lookup(type_name) is not None:
            yield from self.rdm.network.call(
                self.rdm.node_name, self.rdm.node_name, self.rdm.atr.name,
                "remove_type", payload=type_name,
            )
            type_removed = True
        return {
            "type": type_name,
            "deployments_removed": removed,
            "type_removed": type_removed,
        }

    # -- operations (attached to the hosting RDM service) -------------------

    def op_undeploy(self, message: Message) -> Generator:
        """Remove a local deployment (registry entry + installed files)."""
        payload = message.payload
        if not isinstance(payload, dict):
            payload = {"key": payload}  # the bare-key spelling
        yield from self.rdm.compute(self.rdm.REQUEST_DEMAND)
        result = yield from self.undeploy(
            payload["key"], remove_files=payload.get("remove_files", True))
        return result

    def op_undeploy_type(self, message: Message) -> Generator:
        """Remove every local deployment of a type (optionally the type)."""
        payload = message.payload
        yield from self.rdm.compute(self.rdm.REQUEST_DEMAND)
        result = yield from self.undeploy_type(
            payload["type"],
            remove_type=payload.get("remove_type", False),
            remove_files=payload.get("remove_files", True),
        )
        return result
