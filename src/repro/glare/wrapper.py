"""Wrapper-service generation for legacy executables (Otho toolkit).

Paper §6: "We are considering to add features of ... generation of
wrapper services for legacy code by integrating with the Otho toolkit."
This module implements the integration point: given an *executable*
deployment, it generates a Grid/web-service deployment that wraps it —
the service endpoint lives in the site's WSRF container, and
instantiating it submits the wrapped executable as a GRAM job under the
hood.  Clients that prefer service interfaces (workflow engines built
on WS invocation) can then use the activity without knowing it is a
legacy binary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.glare.errors import DeploymentNotFound, GlareError
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.glare.rdm import GlareRDMService

#: environment key marking a generated wrapper and naming its target
WRAPPED_EXECUTABLE_KEY = "wrapped_executable"
#: CPU cost of generating, compiling and deploying the wrapper service
WRAPPER_GENERATION_DEMAND = 3.0


class WrapperGenerator:
    """Generates WS wrappers around executable deployments."""

    def __init__(self, rdm: "GlareRDMService") -> None:
        self.rdm = rdm
        self.generated = 0

    def wrap(self, deployment_key: str) -> Generator:
        """Generate and register a wrapper service for ``deployment_key``.

        Returns the new service deployment's registry key.
        """
        adr = self.rdm.adr
        target = adr.deployments.get(deployment_key)
        if target is None:
            raise DeploymentNotFound(
                f"no local deployment {deployment_key!r} on {self.rdm.node_name}"
            )
        if target.kind != DeploymentKind.EXECUTABLE:
            raise GlareError(
                f"{deployment_key!r} is already a service; nothing to wrap"
            )
        wrapper_name = f"WS-{target.name}"
        wrapper_key = f"{self.rdm.node_name}:{wrapper_name}"
        if wrapper_key in adr.deployments:
            raise GlareError(f"wrapper {wrapper_key!r} already exists")

        # Otho generates, builds and hot-deploys the wrapper into the
        # site's container: charge the build cost on the host.
        yield from self.rdm.compute(WRAPPER_GENERATION_DEMAND)
        wrapper = ActivityDeployment(
            name=wrapper_name,
            type_name=target.type_name,
            kind=DeploymentKind.SERVICE,
            site=self.rdm.node_name,
            endpoint=(
                f"https://{self.rdm.node_name}/wsrf/services/{wrapper_name}"
            ),
            home=target.home,
            status=DeploymentStatus.ACTIVE,
            environment={WRAPPED_EXECUTABLE_KEY: target.path},
        )
        yield from self.rdm.rpc_local_adr_register(wrapper)
        self.generated += 1
        return wrapper.key

    def op_generate_wrapper(self, message: Message) -> Generator:
        """Otho integration: wrap an executable deployment in a service
        (attached to the hosting RDM service)."""
        yield from self.rdm.compute(self.rdm.REQUEST_DEMAND)
        key = yield from self.wrap(message.payload)
        return {"wrapper": key}


def wrapped_executable_path(deployment: ActivityDeployment) -> str:
    """The legacy binary a wrapper service fronts ('' if not a wrapper)."""
    return deployment.environment.get(WRAPPED_EXECUTABLE_KEY, "")
