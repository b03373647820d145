"""GLARE-specific exception types."""

from __future__ import annotations

from repro.net.interceptors import TRANSIENT_ERRORS, RemoteError


class GlareError(Exception):
    """Base class for GLARE framework errors."""


class TypeNotFound(GlareError):
    """No activity type with the requested name is known anywhere."""


class DeploymentNotFound(GlareError):
    """No deployment could be found or created for the requested type."""


class TypeMissingForDeployment(GlareError):
    """A deployment was registered for a type the registry doesn't know.

    Per the paper, the deployment registry reacts by asking the type
    registry for dynamic registration of a new type; this error is
    raised only when that recovery is impossible (no type description
    supplied).
    """


class ConstraintViolation(GlareError):
    """No candidate site satisfies the type's installation constraints."""


class DeploymentFailed(GlareError):
    """An on-demand installation failed (on all candidate sites)."""


class InvalidTypeDescription(GlareError):
    """A malformed activity type document was submitted."""


class CycleInHierarchy(GlareError):
    """The activity type hierarchy contains a cycle."""


class LeaseError(GlareError):
    """Reservation/lease protocol violations (GridARM integration)."""


class NotAuthorized(GlareError):
    """An instantiation was attempted without a valid lease ticket."""


#: what a client can be told instead of an answer — an application-level
#: miss, a remote handler's fault, a transport failure.  Anything else
#: is a bug in the caller and propagates.
CLIENT_ERRORS = (GlareError, RemoteError) + TRANSIENT_ERRORS
