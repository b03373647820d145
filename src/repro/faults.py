"""VO-wide fault plane: seeded, declarative failure injection.

The paper's self-management claim (§3.4) is about what happens when
things break: sites crash, links drop, services misbehave — and the
overlay detects, re-elects and recovers on its own.  Before this module
the reproduction could only inject GridFTP transfer failures through a
service-private knob; every other failure mode meant hand-editing a
test.  :class:`FaultPlane` makes failure a first-class, VO-wide input:

* **node crash/restart** — :meth:`FaultPlane.crash` and
  :meth:`FaultPlane.restart` are the one way a site's liveness changes
  (each flips the node, stops or restarts the loops of its planes and
  journals it); :meth:`FaultPlane.outage` is the one generator that
  schedules them, spawned once per :class:`CrashSpec` or by an
  experiment that picks its victim at run time;
* **link loss and partition windows** — per-call drops and time-boxed
  network splits, drawn first thing in the transport stage
  (:meth:`~repro.net.network.Network._transport`);
* **per-service error rules** — seeded server-side failures surfaced
  to callers as :class:`~repro.net.interceptors.RemoteError` with the
  configured exception type name preserved;
* **GridFTP transfer faults** — a :class:`TransferFaultRule` fails a
  share of the transfer attempts into a site as a transient
  ``TransferError``, drawn on the historical ``gridftp-fail:`` keys.

A scenario is one frozen :class:`FaultsConfig` value of five rule
tuples, checked when it is built, so a schedule can be generated,
shrunk and committed like any other value.  The
:class:`~repro.net.network.Network` builds the one plane from it.
Every draw comes from a named stream of the simulator's
:class:`~repro.simkernel.rng.RngRegistry` (the same trick the GridFTP
fault keys used), so fault scenarios are reproducible per seed and
adding the plane does not perturb any existing stream.  A VO built with
``FaultsConfig.NONE`` (the default) carries a disabled plane: no
processes, no draws, byte-identical behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Tuple

from repro.simkernel.errors import OfflineError, SimulationError
from repro.simkernel.primitives import Periodic

if TYPE_CHECKING:
    from repro.net.interceptors import RemoteError


class FaultInjected(SimulationError):
    """An error manufactured by the fault plane (transient by definition)."""

    transient = True


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class CrashSpec:
    """Take ``site`` offline at ``at``; restart after ``down_for`` (None = never)."""

    site: str
    at: float
    down_for: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at!r}")
        if self.down_for is not None and self.down_for < 0:
            raise ValueError(f"down_for must be None or >= 0, got {self.down_for!r}")


@dataclass(frozen=True)
class LinkRule:
    """Drop a fraction ``loss`` of calls matching ``src``/``dst`` (None = any)."""

    loss: float
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        _check_rate("loss", self.loss)


@dataclass(frozen=True)
class PartitionSpec:
    """During ``[start, end)`` sites in ``group`` can't reach the rest."""

    start: float
    end: float
    group: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"partition needs start < end, got "
                             f"[{self.start!r}, {self.end!r})")
        if not (isinstance(self.group, tuple) and self.group
                and all(isinstance(name, str) for name in self.group)):
            raise ValueError(f"partition group must be a non-empty tuple "
                             f"of site names, got {self.group!r}")


@dataclass(frozen=True)
class ServiceErrorRule:
    """Fail a fraction ``rate`` of dispatches to ``service`` (``method``/``dst`` filters).

    The caller sees ``RemoteError`` wrapping a synthetic exception
    named ``error`` — the type name survives the wire.
    """

    service: str
    rate: float
    method: Optional[str] = None
    dst: Optional[str] = None
    error: str = "FaultInjected"

    def __post_init__(self) -> None:
        _check_rate("rate", self.rate)


@dataclass(frozen=True)
class TransferFaultRule:
    """Fail a fraction ``rate`` of GridFTP transfer attempts into
    ``site`` (None = any) with a transient ``TransferError``."""

    rate: float
    site: Optional[str] = None

    def __post_init__(self) -> None:
        _check_rate("rate", self.rate)


@dataclass(frozen=True)
class FaultsConfig:
    """Declarative fault scenario for one VO (all empty = plane disabled).

    A crash whose victim is only known at run time (say, whoever leads
    a group *right now*) is not a rule: the experiment spawns
    :meth:`FaultPlane.outage` itself when it has picked the site.
    """

    crashes: Tuple[CrashSpec, ...] = ()
    links: Tuple[LinkRule, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    service_errors: Tuple[ServiceErrorRule, ...] = ()
    transfers: Tuple[TransferFaultRule, ...] = ()

    #: no rule at all — the one default every constructor shares
    NONE: ClassVar["FaultsConfig"]


FaultsConfig.NONE = FaultsConfig()


def _synthetic_error_class(name: str) -> type:
    """A ``FaultInjected`` subclass carrying the configured type name."""
    cls = _SYNTHETIC_CLASSES.get(name)
    if cls is None:
        cls = type(name, (FaultInjected,), {})
        _SYNTHETIC_CLASSES[name] = cls
    return cls


_SYNTHETIC_CLASSES: Dict[str, type] = {"FaultInjected": FaultInjected}


class FaultPlane:
    """Seeded failure injector shared by the whole VO.

    The :class:`~repro.net.network.Network` builds exactly one, from its
    :class:`FaultsConfig` (like the observability bundle); it is
    disabled unless that config holds a rule.  :meth:`crash` /
    :meth:`restart` work on any network, enabled or not; :meth:`start`
    spawns one :meth:`outage` per configured crash; the per-call hooks
    (:meth:`link_fault`, :meth:`service_fault`, :meth:`transfer_fault`)
    are invoked by the RPC pipeline and GridFTP.
    """

    def __init__(self, network, config: FaultsConfig) -> None:
        self.network = network
        self.sim = network.sim
        self.config = config
        #: any rule at all: a disabled plane spawns and draws nothing
        self.enabled = bool(config.crashes or config.links or config.partitions
                            or config.service_errors or config.transfers)
        self.link_faults_injected = 0
        self.service_errors_injected = 0
        self.transfer_faults_injected = 0
        #: per crashed site, the loops its crash stopped: exactly what
        #: its restart starts again (``network.stop()`` clears it)
        self.held: Dict[str, List[Periodic]] = {}

    # -- scheduled faults ----------------------------------------------------------

    def start(self) -> None:
        """Spawn one :meth:`outage` per :class:`CrashSpec` (``build_vo``
        calls it once the sites exist); a crash of an unknown node is
        rejected before anything is spawned."""
        unknown = sorted({crash.site for crash in self.config.crashes}
                         - set(self.network.nodes))
        if unknown:
            raise ValueError(f"crash of unknown node(s): {', '.join(unknown)}")
        for crash in self.config.crashes:
            self.sim.process(self.outage(crash.site, crash.down_for, crash.at),
                             name=f"fault:crash:{crash.site}")

    def crash(self, site: Optional[str]) -> bool:
        """Take ``site`` offline, stop the loops of its planes that run
        and journal the ``crash``.

        A crash of no site (``None``) or of one already down is skipped:
        journaled as ``crash-skip`` and ``False`` returned, so its caller
        schedules no restart that would revive a site a later crash
        still holds down.
        """
        node = None if site is None else self.network.node(site)
        if node is None or not node.online:
            self.sim.note("faults", "crash-skip", site=site)
            return False
        node.online = False
        running = [loop for plane in node.planes for loop in plane.loops()
                   if loop.running]
        for loop in running:
            loop.stop()
        self.held[site] = running
        self.sim.note("faults", "crash", site=site)
        return True

    def restart(self, site: str) -> None:
        """Bring ``site`` back online, start exactly the loops its
        crash stopped and journal the ``restart``."""
        self.network.node(site).online = True
        for loop in self.held.pop(site, ()):
            loop.start()
        self.sim.note("faults", "restart", site=site)

    def outage(self, site: Optional[str], down_for: Optional[float],
               at: Optional[float] = None):
        """Process body of one outage: wait until ``at`` (None = now),
        :meth:`crash` ``site``, wait ``down_for`` and :meth:`restart` it
        (``down_for=None``: it stays down).  A skipped crash restarts
        nothing."""
        if at is not None and at > self.sim.now:
            yield self.sim.timeout(at - self.sim.now)
        if not self.crash(site) or down_for is None:
            return
        yield self.sim.timeout(down_for)
        self.restart(site)

    # -- per-call hooks ----------------------------------------------------------

    def link_fault(self, src: str, dst: str) -> Optional[BaseException]:
        """Loss/partition verdict for one call; ``None`` = deliverable."""
        if src == dst:
            return None
        cfg = self.config
        now = self.sim.now
        for window in cfg.partitions:
            if window.start <= now < window.end:
                if (src in window.group) != (dst in window.group):
                    self.link_faults_injected += 1
                    return OfflineError(
                        f"partition: {src!r} cannot reach {dst!r}"
                    )
        for rule in cfg.links:
            if rule.src is not None and rule.src != src:
                continue
            if rule.dst is not None and rule.dst != dst:
                continue
            if rule.loss > 0 and (
                self.sim.rng.uniform(f"fault:link:{src}->{dst}", 0.0, 1.0)
                < rule.loss
            ):
                self.link_faults_injected += 1
                return OfflineError(f"link fault: {src!r} -> {dst!r} dropped")
            break  # first matching rule decides
        return None

    def service_fault(self, service: str, method: str,
                      dst: str) -> Optional[RemoteError]:
        """Server-side error verdict for one dispatch of ``service.method``
        on ``dst``; ``None`` = run the handler."""
        for rule in self.config.service_errors:
            if rule.service != service:
                continue
            if rule.method is not None and rule.method != method:
                continue
            if rule.dst is not None and rule.dst != dst:
                continue
            key = f"fault:svc:{service}.{method}:{dst}"
            if rule.rate > 0 and self.sim.rng.uniform(key, 0.0, 1.0) < rule.rate:
                # deferred: repro.net's network module imports this one
                from repro.net.interceptors import RemoteError

                self.service_errors_injected += 1
                cause = _synthetic_error_class(rule.error)(
                    f"injected failure in {service}.{method} on {dst}"
                )
                return RemoteError(cause)
            break  # first matching rule decides
        return None

    def transfer_fault(self, site: str, path: str) -> bool:
        """Transient-failure verdict for one GridFTP transfer of ``path``
        into ``site``: the first rule matching ``site`` decides, drawing
        on the historical ``gridftp-fail:{site}:{path}`` stream keys."""
        for rule in self.config.transfers:
            if rule.site in (None, site):
                hit = rule.rate > 0 and self.sim.rng.uniform(
                    f"gridftp-fail:{site}:{path}", 0.0, 1.0) < rule.rate
                self.transfer_faults_injected += hit
                return hit
        return False


__all__ = [
    "CrashSpec",
    "FaultInjected",
    "FaultPlane",
    "FaultsConfig",
    "LinkRule",
    "PartitionSpec",
    "ServiceErrorRule",
    "TransferFaultRule",
]
