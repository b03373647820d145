"""The GLARE data model: activity types and activity deployments.

"An *activity type* (AT) is a functional or behavioural description,
which can be used to lookup or deploy an activity.  An *activity
deployment* (AD) refers to an executable or Grid/web service and
describes how they can be accessed and executed." (paper §2.2)

Types are arranged in an abstract/concrete hierarchy (see
:mod:`repro.glare.hierarchy`); concrete types may carry an
*installation section* — constraints plus a deploy-file reference —
enabling on-demand deployment (paper Fig. 9).  Both types and
deployments serialize to/from XML resource-property documents, because
each occurrence in a registry is a WS-Resource.

Wire-form caching
-----------------
Registries move the *same* type/deployment document on every hit, and
converting between object and XML string dominated their wall-clock
cost.  Each direction is therefore done once per document.

*Send.*  Both model classes cache their serialized XML string (and its
byte size) after the first :meth:`wire_xml` call.  The invalidation
rule: **any code that mutates a field appearing in** ``to_xml()``
**must call** :meth:`invalidate_wire_cache` afterwards.  In this
codebase the only post-registration mutation site is the deployment
status monitor's update path
(:meth:`repro.glare.registry.ActivityDeploymentRegistry.op_update_status`).
Fields not serialized (``registered_at``, ``last_update_time``) may
change freely.  The cached string is exactly ``to_xml().to_string()``,
so every simulated message size computed from it is byte-identical to
the uncached value.

*Receive.*  ``from_xml(str)`` parses through
:func:`repro.wsrf.xmldoc.parse_shared`: one parse per distinct document
string — the string is immutable, and the client, its super-peer and
the shard owner all receive the same one — into a tree that is **shared
and read-only**.  Every caller still gets a *fresh* object built by the
ordinary ``from_xml`` body (all ``__post_init__`` validation runs per
copy; no list or dict is shared between copies or with the memo).
:meth:`from_wire_xml` — what the registries decode a received wire with
(``type_from_wire`` / ``deployment_from_wire`` / ``cache_wire``) — is
``from_xml(str)`` whose copy also starts with its wire form set: the
canonical re-serialisation of the decoded object, computed once per
document and kept beside the tree.  That equals the received string for
everything the registries emit but is computed, not assumed — parsing
strips character data, so a hand-written document with a padded field
re-serialises shorter.  ``op_deploy`` decodes its type document the
same way: the installing site always serves it on.  A document somebody
*wrote* and may never serve (a registration, a bulk-load) goes through
plain ``from_xml`` and pays for a wire form only if it is ever served.
The one decoded object receivers *do* share is immutable: a deploy-file's
plan (:mod:`repro.glare.deployfile`).  A registry *cache* entry keeps the
shared tree as its property document
(:meth:`repro.glare.registry._Registry.add_cached`); it is never
aggregated or edited.  Whoever keeps, aggregates or edits what it
parsed — the MDS index, the AGWL workflow parser, a registry's own
``home`` resources — uses plain ``parse_xml`` / ``to_xml()``.  The
memo's bound is a module constant (``xmldoc._SHARED_LIMIT``, cleared
wholesale like the two older memos): it only has to exceed one run's
working set of distinct documents, nothing simulated depends on it, and
no caller has a reason to choose another value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.glare.errors import InvalidTypeDescription
from repro.wsrf.xmldoc import Element, parse_shared, shared_document


class _WireCached:
    """Mixin: the serialized form of a ``to_xml()`` document, cached on
    the way out (:meth:`wire_xml`) and on the way in (:meth:`from_wire_xml`)."""

    @classmethod
    def from_wire_xml(cls, text: str):
        """Decode a document its receiver serves on (a registry's wire, a
        deploy request's type): ``from_xml(text)`` keeping its wire form.

        That form is the canonical re-serialisation of the decoded
        object, computed once per distinct document and kept beside the
        shared tree — computed, not assumed to be ``text``: parsing
        strips character data, so a padded field re-serialises shorter.
        """
        shared = shared_document(text)
        item = cls.from_xml(shared.root)
        if shared.canonical is None:
            canonical = item.to_xml().to_string()
            # equal for everything the registries emit: then keep the
            # received object, one string per document in every memo
            shared.canonical = text if canonical == text else canonical
        item.__dict__["_wire_form"] = shared.canonical
        return item

    def wire_xml(self) -> str:
        """The serialized property document (cached after first use)."""
        cached = self.__dict__.get("_wire_form")
        if cached is None:
            cached = self.to_xml().to_string()
            self.__dict__["_wire_form"] = cached
        return cached

    def wire_size(self) -> int:
        """Byte size of :meth:`wire_xml` (``len`` of the cached string)."""
        return len(self.wire_xml())

    def invalidate_wire_cache(self) -> None:
        """Drop the cached wire form after mutating a serialized field."""
        self.__dict__.pop("_wire_form", None)


class TypeKind(enum.Enum):
    """Abstract types describe; concrete types can be deployed."""

    ABSTRACT = "abstract"
    CONCRETE = "concrete"


class DeploymentKind(enum.Enum):
    """What an activity deployment actually is."""

    EXECUTABLE = "executable"
    SERVICE = "service"


class DeploymentStatus(enum.Enum):
    """Lifecycle status tracked by the Deployment Status Monitor."""

    PENDING = "pending"
    ACTIVE = "active"
    FAILED = "failed"
    REVOKED = "revoked"


@dataclass
class ActivityFunction:
    """One function a type provides (e.g. ``render``), with its I/O."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)

    def to_xml(self) -> Element:
        el = Element("Function", attrib={"name": self.name})
        for inp in self.inputs:
            el.make_child("Input", text=inp)
        for out in self.outputs:
            el.make_child("Output", text=out)
        return el

    @classmethod
    def from_xml(cls, el: Element) -> "ActivityFunction":
        return cls(
            name=el.get("name", ""),
            inputs=[c.text for c in el.findall("Input")],
            outputs=[c.text for c in el.findall("Output")],
        )


@dataclass
class InstallationSpec:
    """How a concrete type is installed on demand (paper Fig. 9).

    ``mode`` is ``on-demand`` or ``manual`` — on manual mode (or on
    failure) GLARE notifies the target site's administrator instead of
    installing.
    """

    mode: str = "on-demand"
    constraints: Dict[str, str] = field(default_factory=dict)
    deploy_file_url: str = ""
    deploy_file_md5: str = ""
    dependencies: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in ("on-demand", "manual"):
            raise InvalidTypeDescription(f"unknown installation mode {self.mode!r}")

    def to_xml(self) -> Element:
        el = Element("Installation", attrib={"mode": self.mode})
        if self.constraints:
            cons = el.make_child("Constraints")
            for key, value in self.constraints.items():
                cons.make_child(key, text=value)
        if self.deploy_file_url:
            el.make_child(
                "DeployFile", url=self.deploy_file_url, md5sum=self.deploy_file_md5
            )
        return el

    @classmethod
    def from_xml(cls, el: Element, dependencies: Optional[List[str]] = None) -> "InstallationSpec":
        constraints: Dict[str, str] = {}
        cons = el.find("Constraints")
        if cons is not None:
            for child in cons.children:
                constraints[child.tag] = child.text
        deploy = el.find("DeployFile")
        return cls(
            mode=el.get("mode", "on-demand"),
            constraints=constraints,
            deploy_file_url=deploy.get("url", "") if deploy is not None else "",
            deploy_file_md5=deploy.get("md5sum", "") if deploy is not None else "",
            dependencies=list(dependencies or []),
        )


@dataclass
class ActivityType(_WireCached):
    """A named node in the activity-type hierarchy.

    ``base_types`` are the types this one extends (``JPOVray`` extends
    ``POVray`` and ``Imaging`` in paper Fig. 2).  ``deployment_names``
    pre-identifies the executables/services an installation produces —
    the alternative being automatic ``bin/`` exploration.
    """

    name: str
    kind: TypeKind = TypeKind.ABSTRACT
    base_types: List[str] = field(default_factory=list)
    domain: str = ""
    description: str = ""
    functions: List[ActivityFunction] = field(default_factory=list)
    benchmarks: Dict[str, float] = field(default_factory=dict)
    installation: Optional[InstallationSpec] = None
    deployment_names: List[str] = field(default_factory=list)
    min_deployments: int = 0
    max_deployments: Optional[int] = None
    provider: str = ""
    registered_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTypeDescription("activity type needs a name")
        if self.name in self.base_types:
            raise InvalidTypeDescription(f"type {self.name!r} cannot extend itself")
        if self.max_deployments is not None and self.max_deployments < self.min_deployments:
            raise InvalidTypeDescription("max_deployments < min_deployments")
        if self.kind == TypeKind.ABSTRACT and self.installation is not None:
            raise InvalidTypeDescription(
                f"abstract type {self.name!r} cannot carry an installation section"
            )

    @property
    def key(self) -> str:
        """Registry key: a type's WS-Resource is keyed by its name."""
        return self.name

    @property
    def is_concrete(self) -> bool:
        return self.kind == TypeKind.CONCRETE

    @property
    def installable(self) -> bool:
        """Whether GLARE can deploy this type automatically."""
        return (
            self.is_concrete
            and self.installation is not None
            and self.installation.mode == "on-demand"
            and bool(self.installation.deploy_file_url)
        )

    # -- XML ----------------------------------------------------------------

    def to_xml(self) -> Element:
        el = Element(
            "ActivityTypeEntry",
            attrib={"name": self.name, "kind": self.kind.value},
        )
        if self.domain:
            el.make_child("Domain", text=self.domain)
        if self.description:
            el.make_child("Description", text=self.description)
        for base in self.base_types:
            el.make_child("BaseType", text=base)
        for function in self.functions:
            el.append(function.to_xml())
        for platform, score in sorted(self.benchmarks.items()):
            el.make_child("Benchmark", text=f"{score:.3f}", platform=platform)
        if self.installation is not None:
            if self.installation.dependencies:
                el.make_child("Dependency", text=",".join(self.installation.dependencies))
            el.append(self.installation.to_xml())
        for dep_name in self.deployment_names:
            el.make_child("DeploymentName", text=dep_name)
        limits = {}
        if self.min_deployments:
            limits["min"] = str(self.min_deployments)
        if self.max_deployments is not None:
            limits["max"] = str(self.max_deployments)
        if limits:
            el.make_child("DeploymentLimits", **limits)
        if self.provider:
            el.make_child("Provider", text=self.provider)
        return el

    @classmethod
    def from_xml(cls, source) -> "ActivityType":
        el = parse_shared(source) if isinstance(source, str) else source
        if el.tag != "ActivityTypeEntry":
            raise InvalidTypeDescription(f"expected ActivityTypeEntry, got <{el.tag}>")
        name = el.get("name", "")
        kind_raw = el.get("kind", "")
        installation_el = el.find("Installation")
        if kind_raw:
            kind = TypeKind(kind_raw)
        else:
            # The paper's Fig. 9 sample omits the kind; concreteness is
            # implied by the presence of an installation section.
            kind = TypeKind.CONCRETE if installation_el is not None else TypeKind.ABSTRACT
        dependencies: List[str] = []
        dep = el.find("Dependency")
        if dep is not None and dep.text:
            dependencies = [d.strip() for d in dep.text.split(",") if d.strip()]
        installation = (
            InstallationSpec.from_xml(installation_el, dependencies=dependencies)
            if installation_el is not None
            else None
        )
        base_types = [c.text for c in el.findall("BaseType")]
        # Fig. 9 uses the `type` attribute as shorthand for the base type.
        if el.get("type") and el.get("type") not in base_types:
            base_types.append(el.get("type"))
        limits = el.find("DeploymentLimits")
        return cls(
            name=name,
            kind=kind,
            base_types=base_types,
            domain=el.findtext("Domain"),
            description=el.findtext("Description"),
            functions=[ActivityFunction.from_xml(f) for f in el.findall("Function")],
            benchmarks={
                b.get("platform", "any"): float(b.text) for b in el.findall("Benchmark")
            },
            installation=installation,
            deployment_names=[c.text for c in el.findall("DeploymentName")],
            min_deployments=int(limits.get("min", "0")) if limits is not None else 0,
            max_deployments=(
                int(limits.get("max")) if limits is not None and limits.get("max") else None
            ),
            provider=el.findtext("Provider"),
        )


@dataclass
class ActivityDeployment(_WireCached):
    """One installed occurrence of a concrete type on some site.

    For executables: ``path`` and ``home`` on the site filesystem
    (paper Fig. 7).  For services: ``endpoint`` is the service URI.
    """

    name: str
    type_name: str
    kind: DeploymentKind
    site: str
    path: str = ""
    home: str = ""
    endpoint: str = ""
    status: DeploymentStatus = DeploymentStatus.PENDING
    registered_at: float = 0.0
    last_update_time: float = 0.0
    last_execution_time: Optional[float] = None
    last_invocation_time: Optional[float] = None
    last_return_code: Optional[int] = None
    environment: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not self.type_name:
            raise InvalidTypeDescription("deployment needs name and type_name")
        if self.kind == DeploymentKind.EXECUTABLE and not self.path:
            raise InvalidTypeDescription(
                f"executable deployment {self.name!r} needs a path"
            )
        if self.kind == DeploymentKind.SERVICE and not self.endpoint:
            raise InvalidTypeDescription(
                f"service deployment {self.name!r} needs an endpoint"
            )

    @property
    def key(self) -> str:
        """Registry key: unique per (site, deployment name)."""
        return f"{self.site}:{self.name}"

    @property
    def usable(self) -> bool:
        return self.status == DeploymentStatus.ACTIVE

    def to_xml(self) -> Element:
        el = Element(
            "ActivityDeployment",
            attrib={
                "name": self.name,
                "type": self.type_name,
                "kind": self.kind.value,
                "site": self.site,
                "status": self.status.value,
            },
        )
        if self.path:
            el.make_child("Path", text=self.path)
        if self.home:
            el.make_child("Home", text=self.home)
        if self.endpoint:
            el.make_child("Endpoint", text=self.endpoint)
        metrics = el.make_child("Metrics")
        if self.last_execution_time is not None:
            metrics.make_child("LastExecutionTime", text=f"{self.last_execution_time:.3f}")
        if self.last_invocation_time is not None:
            metrics.make_child("LastInvocationTime", text=f"{self.last_invocation_time:.3f}")
        if self.last_return_code is not None:
            metrics.make_child("LastReturnCode", text=str(self.last_return_code))
        if self.environment:
            env = el.make_child("Environment")
            for key, value in sorted(self.environment.items()):
                env.make_child("Env", name=key, value=value)
        return el

    @classmethod
    def from_xml(cls, source) -> "ActivityDeployment":
        el = parse_shared(source) if isinstance(source, str) else source
        if el.tag != "ActivityDeployment":
            raise InvalidTypeDescription(f"expected ActivityDeployment, got <{el.tag}>")
        metrics = el.find("Metrics")

        def _metric(tag, cast):
            if metrics is None:
                return None
            raw = metrics.findtext(tag)
            return cast(raw) if raw else None

        environment: Dict[str, str] = {}
        env = el.find("Environment")
        if env is not None:
            for child in env.findall("Env"):
                environment[child.get("name", "")] = child.get("value", "")
        return cls(
            name=el.get("name", ""),
            type_name=el.get("type", ""),
            kind=DeploymentKind(el.get("kind", "executable")),
            site=el.get("site", ""),
            path=el.findtext("Path"),
            home=el.findtext("Home"),
            endpoint=el.findtext("Endpoint"),
            status=DeploymentStatus(el.get("status", "pending")),
            last_execution_time=_metric("LastExecutionTime", float),
            last_invocation_time=_metric("LastInvocationTime", float),
            last_return_code=_metric("LastReturnCode", int),
            environment=environment,
        )
