"""Base class for simulated Grid services.

A service lives on one node and exposes operations as generator methods
named ``op_<method>``.  The transport (:meth:`Network.call`) invokes
:meth:`Service.dispatch`, which runs the handler inline in the calling
process — server-side CPU contention is still modelled because handlers
charge their work to the node's CPU via :meth:`compute`.

Subclasses in this reproduction: the GLARE registries and RDM service,
the WS-MDS index, GRAM job managers, GridFTP endpoints, the GridARM
reservation service, and notification sinks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterator, Tuple

from repro.net.interceptors import Overloaded
from repro.net.message import Message, Response
from repro.simkernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network, NodeRuntime


class UnknownOperation(Exception):
    """The service has no handler for the requested method."""


class Plane:
    """One part of a site (``NodeRuntime.planes``): the
    :class:`~repro.simkernel.primitives.Periodic` loops it owns, and a
    ``(clause, detail)`` for every clause of its own state that is
    broken (:func:`repro.invariants.audit`)."""

    name = ""

    def loops(self) -> Tuple[Any, ...]:
        return ()

    def invariants(self) -> Iterator[Tuple[str, str]]:
        return iter(())


class Service(Plane):
    """A named service deployed on one Grid site.

    Subclasses set :attr:`SERVICE_NAME` (or pass ``name``) and define
    generator methods ``op_<method>(self, message) -> value``.

    Dispatch keeps separate success/failure tallies
    (:attr:`requests_handled` counts only handlers that returned) and
    optionally bounds admission: with :attr:`admission_limit` set, a
    request arriving while that many are already in flight is shed
    with :class:`~repro.net.interceptors.Overloaded` — a transient
    error retry policies back off on.
    """

    SERVICE_NAME = "service"

    #: control-plane operations admission shedding never applies to.
    #: Observation and reconciliation traffic must get through exactly
    #: when the data plane is overloaded — otherwise the control loop
    #: goes blind at the moment it matters (the same reason real load
    #: shedders exempt health checks).  They still charge CPU.  The RDM
    #: exempts two sets: the overlay's protocol with its ``ping``
    #: (``OverlayManager.CONTROL_OPS``) and the orchestration agent's
    #: (``SiteAgent.CONTROL_OPS``).
    CONTROL_OPS: frozenset = frozenset()

    def __init__(self, network: "Network", node_name: str, name: str | None = None) -> None:
        self.network = network
        self.node_name = node_name
        self.name = name or type(self).SERVICE_NAME
        self.requests_handled = 0
        self.requests_failed = 0
        self.requests_shed = 0
        #: shed tally per op name — lets overload experiments attribute
        #: admission drops to op classes instead of one global count
        self.shed_by_op: dict[str, int] = {}
        self.inflight = 0
        #: max concurrent dispatches before shedding (None = unbounded)
        self.admission_limit: int | None = None
        network.register_service(self)
        #: the host's CPU, bound once: :meth:`compute` runs per handler
        self._cpu = network.node(node_name).cpu

    # -- environment helpers -------------------------------------------------

    @property
    def sim(self) -> Simulator:
        """The owning simulator."""
        return self.network.sim

    @property
    def node(self) -> "NodeRuntime":
        """The runtime of the node this service is deployed on."""
        return self.network.node(self.node_name)

    @property
    def obs(self):
        """The VO's observability bundle (a disabled one by default)."""
        return self.network.obs

    def compute(self, demand: float) -> Generator:
        """Charge ``demand`` CPU-seconds to this service's host."""
        return self._cpu.execute(demand)

    def call(self, dst: str, service: str, method: str, **kwargs) -> Generator:
        """Convenience: RPC from this service's node to another service."""
        return self.network.call(self.node_name, dst, service, method, **kwargs)

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, method: str, message: Message) -> Generator:
        """Route ``message`` to the ``op_<method>`` handler."""
        handler = getattr(self, f"op_{method}", None)
        if handler is None:
            raise UnknownOperation(f"{self.name} has no operation {method!r}")
        if (self.admission_limit is not None
                and self.inflight >= self.admission_limit
                and method not in self.CONTROL_OPS):
            self.requests_shed += 1
            self.shed_by_op[method] = self.shed_by_op.get(method, 0) + 1
            raise Overloaded(
                f"{self.name} on {self.node_name} shed {method!r}: "
                f"{self.inflight} requests already in flight "
                f"(limit {self.admission_limit})",
                request=message,
            )
        self.inflight += 1
        try:
            result = yield from handler(message)
        except BaseException:
            self.requests_failed += 1
            raise
        else:
            self.requests_handled += 1
            return result
        finally:
            self.inflight -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} @ {self.node_name}>"


class EchoService(Service):
    """Minimal service used by transport tests: echoes its payload."""

    SERVICE_NAME = "echo"

    def __init__(self, network, node_name, demand: float = 0.001, name: str | None = None):
        super().__init__(network, node_name, name=name)
        self.demand = demand

    def op_echo(self, message: Message) -> Generator:
        yield from self.compute(self.demand)
        return Response(value=message.payload)

    def op_fail(self, message: Message) -> Generator:
        yield from self.compute(self.demand)
        raise RuntimeError(f"echo failure requested by {message.src}")
