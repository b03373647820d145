"""WS-Resources, endpoint references, and the keyed resource home.

"Each occurrence of an activity type and deployment in a registry
service is represented as a WS-Resource" (paper §3.1).  A WS-Resource
couples a key with an XML resource-property document and a lifetime.
The :class:`EndpointReference` mirrors paper Fig. 6: a service address,
a resource key, and reference properties including ``LastUpdateTime``
(LUT) — the attribute the GLARE cache refresher compares to detect
stale cached resources.

The :class:`ResourceHome` stores resources in a **hash table keyed by
name**, which is precisely the mechanism the paper credits for the
registry outperforming the XPath-scanning WS-MDS index ("the registry
services use hash tables to access named resources ... significantly
improves the performance").  Storage is pluggable: the home owns the
registry semantics (destroyed-purge on read, expiry sweeps) and
delegates raw key/value mechanics to a
:class:`repro.glare.storage.RegistryBackend` — flat dict by default,
consistent-hash sharded when a ``StorageConfig`` selects it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.wsrf.xmldoc import Element

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.glare.storage import RegistryBackend

_RESOURCE_SERIAL = itertools.count(1)


@dataclass
class EndpointReference:
    """A WS-Addressing endpoint reference (paper Fig. 6).

    ``address`` is the service URI (we use ``site/service``), ``key``
    identifies the WS-Resource within the service, and
    ``last_update_time`` is the LUT reference property used by cache
    revalidation.
    """

    address: str
    service: str
    key: str
    last_update_time: float = 0.0
    reference_parameters: Dict[str, str] = field(default_factory=dict)

    @property
    def site(self) -> str:
        """The Grid site component of the address."""
        return self.address.split("/", 1)[0]

    def touched(self, now: float) -> "EndpointReference":
        """Copy of this EPR with a fresh LastUpdateTime."""
        return EndpointReference(
            address=self.address,
            service=self.service,
            key=self.key,
            last_update_time=now,
            reference_parameters=dict(self.reference_parameters),
        )

    def to_xml(self) -> Element:
        """Serialize as in paper Fig. 6."""
        epr = Element("EndpointReference")
        epr.make_child("Address", text=f"https://{self.address}/wsrf/services/{self.service}")
        ref = epr.make_child("ReferenceProperties")
        ref.make_child("ResourceKey", text=self.key)
        ref.make_child("LastUpdateTime", text=f"{self.last_update_time:.6f}")
        for name, value in self.reference_parameters.items():
            ref.make_child(name, text=value)
        return epr

    def same_resource(self, other: "EndpointReference") -> bool:
        """True when both EPRs address the same WS-Resource.

        Address and key "do not change during the lifecycle of a
        deployed activity" (paper §3.2); LUT is excluded on purpose.
        """
        return (
            self.address == other.address
            and self.service == other.service
            and self.key == other.key
        )


class WSResource:
    """A stateful, keyed resource with an XML property document."""

    def __init__(
        self,
        key: str,
        properties: Element,
        owner_epr: EndpointReference,
        created_at: float = 0.0,
    ) -> None:
        self.key = key
        self.properties = properties
        self.epr = owner_epr
        self.created_at = created_at
        self.serial = next(_RESOURCE_SERIAL)
        #: None = infinite lifetime; otherwise absolute termination time
        self.termination_time: Optional[float] = None
        self.destroyed = False

    @property
    def last_update_time(self) -> float:
        """The LUT carried in this resource's EPR."""
        return self.epr.last_update_time

    def touch(self, now: float) -> None:
        """Refresh the LUT (the Deployment Status Monitor does this)."""
        self.epr = self.epr.touched(now)

    def set_termination_time(self, when: Optional[float]) -> None:
        """Schedule (or clear, with None) this resource's expiry."""
        self.termination_time = when

    def is_expired(self, now: float) -> bool:
        """Whether the resource's scheduled lifetime has elapsed."""
        return self.termination_time is not None and now >= self.termination_time

    def destroy(self) -> None:
        """Mark the resource destroyed (homes drop destroyed entries)."""
        self.destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WSResource {self.key!r} lut={self.last_update_time:.3f}>"


class ResourceHome:
    """Keyed store of WS-Resources over a pluggable storage backend.

    The home owns the registry semantics — destroyed entries are purged
    on read, expiry sweeps destroy-and-drop — while the raw key/value
    mechanics live in a :class:`~repro.glare.storage.RegistryBackend`.
    The default backend is the flat hash table the paper describes
    (byte-identical to the pre-backend ``dict``, including insertion
    order on scans).
    """

    def __init__(self, backend: Optional["RegistryBackend"] = None) -> None:
        if backend is None:
            # Imported lazily: repro.glare's package init imports the
            # registry module, which imports repro.wsrf — a module-level
            # import here would cycle.  By construction time both
            # packages are fully loaded.
            from repro.glare.storage import DictBackend

            backend = DictBackend()
        self.backend = backend

    def __len__(self) -> int:
        return len(self.backend)

    def __contains__(self, key: str) -> bool:
        return key in self.backend

    def add(self, resource: WSResource) -> WSResource:
        """Insert; replaces any existing resource under the same key."""
        self.backend.put(resource.key, resource)
        return resource

    def lookup(self, key: str) -> Optional[WSResource]:
        """O(1) named lookup — the registry fast path."""
        resource = self.backend.get(key)
        if resource is not None and resource.destroyed:
            self.backend.delete(key)
            return None
        return resource

    def lut(self, key: str) -> Optional[float]:
        """LastUpdateTime of the resource under ``key`` (None if absent)."""
        return self.backend.lut(key)

    def remove(self, key: str) -> Optional[WSResource]:
        """Remove and return the resource under ``key`` (if any)."""
        return self.backend.delete(key)

    def keys(self) -> List[str]:
        """All live resource keys."""
        return [k for k, r in self.backend.scan() if not r.destroyed]

    def resources(self) -> Iterator[WSResource]:
        """Iterate over live resources."""
        for _, resource in self.backend.scan():
            if not resource.destroyed:
                yield resource

    def documents(self) -> List[Element]:
        """Property documents of all live resources (for XPath scans)."""
        return [r.properties for r in self.resources()]

    def sweep_expired(self, now: float) -> List[WSResource]:
        """Destroy and return all resources whose lifetime elapsed."""
        expired = [r for r in self.resources() if r.is_expired(now)]
        for resource in expired:
            resource.destroy()
            self.backend.delete(resource.key)
        return expired
