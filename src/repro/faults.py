"""VO-wide fault plane: seeded, declarative failure injection.

The paper's self-management claim (§3.4) is about what happens when
things break: sites crash, links drop, services misbehave — and the
overlay detects, re-elects and recovers on its own.  Before this module
the reproduction could only inject GridFTP transfer failures through a
service-private knob; every other failure mode meant hand-editing a
test.  :class:`FaultPlane` makes failure a first-class, VO-wide input:

* **node crash/restart schedules** — take whole sites offline at fixed
  times (or via selector-driven churn rounds) and bring them back;
* **link loss and partition windows** — per-call drops and time-boxed
  network splits, drawn first thing in the transport stage
  (:meth:`~repro.net.network.Network._transport`);
* **per-service error rules** — seeded server-side failures surfaced
  to callers as :class:`~repro.net.interceptors.RemoteError` with the
  configured exception type name preserved;
* **legacy GridFTP faults** — the old ``failure_rate`` knob now
  delegates its draw to :meth:`FaultPlane.transfer_fault` on the same
  RNG stream keys, so there is exactly one fault RNG path.

Every draw comes from a named stream of the simulator's
:class:`~repro.simkernel.rng.RngRegistry` (the same trick the GridFTP
fault keys used), so fault scenarios are reproducible per seed and
adding the plane does not perturb any existing stream.  A VO built with
``VOConfig.faults=None`` (the default) carries a disabled plane: no
processes, no draws, byte-identical behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.interceptors import CallContext, RemoteError
from repro.simkernel.errors import OfflineError, SimulationError


class FaultInjected(SimulationError):
    """An error manufactured by the fault plane (transient by definition)."""

    transient = True


@dataclass(frozen=True)
class CrashSpec:
    """Take ``site`` offline at ``at``; restart after ``down_for`` (None = never)."""

    site: str
    at: float
    down_for: Optional[float] = None


@dataclass(frozen=True)
class LinkRule:
    """Drop a fraction ``loss`` of calls matching ``src``/``dst`` (None = any)."""

    loss: float
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass(frozen=True)
class PartitionSpec:
    """During ``[start, end)`` sites in ``group`` can't reach the rest."""

    start: float
    end: float
    group: Tuple[str, ...]


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


@dataclass
class FaultsConfig:
    """Declarative fault scenario for one VO (all empty = plane disabled).

    ``churn_times`` fires one crash round per entry; the victim is
    picked by :attr:`FaultPlane.churn_selector` at fire time (falling
    back to a seeded draw over online sites), which is how experiments
    target "whoever is the super-peer *right now*" across takeovers.
    """

    crashes: Tuple[CrashSpec, ...] = ()
    churn_times: Tuple[float, ...] = ()
    churn_downtime: float = 30.0
    links: Tuple[LinkRule, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    service_errors: Tuple[ServiceErrorRule, ...] = ()

    @property
    def any_enabled(self) -> bool:
        return bool(self.crashes or self.churn_times or self.links
                    or self.partitions or self.service_errors)


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

    Always present on the :class:`~repro.net.network.Network` (like the
    observability bundle); disabled unless built with a non-empty
    :class:`FaultsConfig`.  :meth:`start` spawns the crash/churn
    processes; the per-call hooks (:meth:`link_fault`,
    :meth:`service_fault`, :meth:`transfer_fault`) are invoked by the
    RPC pipeline and GridFTP.
    """

    def __init__(self, sim, config: Optional[FaultsConfig] = None) -> None:
        self.sim = sim
        self.config = config
        self.network = None
        #: experiment hook: returns the next churn victim (or None to
        #: skip the round); default picks a seeded online site
        self.churn_selector: Optional[Callable[[], Optional[str]]] = None
        #: chronological injection log (crash/restart rounds)
        self.events: List[Dict] = []
        #: callables receiving each event as it is logged (health plane)
        self.listeners: List[Callable[[Dict], None]] = []
        self.crashes_induced = 0
        self.link_faults_injected = 0
        self.service_errors_injected = 0
        self.transfer_faults_injected = 0
        self._started = False

    @property
    def enabled(self) -> bool:
        return self.config is not None and self.config.any_enabled

    def bind(self, network) -> "FaultPlane":
        self.network = network
        return self

    # -- scheduled faults (crash / churn) -----------------------------------------

    def start(self) -> None:
        """Spawn the crash and churn schedules (idempotent, no-op when disabled)."""
        if self._started or not self.enabled:
            return
        self._started = True
        assert self.network is not None, "FaultPlane.start() before bind()"
        for crash in self.config.crashes:
            self.sim.process(
                self._crash_proc(crash.site, crash.at, crash.down_for),
                name=f"fault:crash:{crash.site}",
            )
        if self.config.churn_times:
            self.sim.process(self._churn_proc(), name="fault:churn")

    def _crash_proc(self, site: str, at: float, down_for: Optional[float]):
        if at > self.sim.now:
            yield self.sim.timeout(at - self.sim.now)
        yield from self._down_up(site, down_for)

    def _emit(self, event: Dict) -> None:
        """Log one event and fan it out to registered listeners."""
        self.events.append(event)
        for listener in self.listeners:
            listener(event)

    def _down_up(self, site: str, down_for: Optional[float]):
        self.network.set_online(site, False)
        self.crashes_induced += 1
        self._emit({"kind": "crash", "site": site, "at": self.sim.now})
        if down_for is None:
            return
        yield self.sim.timeout(down_for)
        self.network.set_online(site, True)
        self._emit({"kind": "restart", "site": site, "at": self.sim.now})

    def _churn_proc(self):
        for index, when in enumerate(self.config.churn_times):
            if when > self.sim.now:
                yield self.sim.timeout(when - self.sim.now)
            victim = self._pick_victim()
            if victim is None or not self.network.is_online(victim):
                self._emit(
                    {"kind": "churn-skip", "site": victim, "at": self.sim.now}
                )
                continue
            # rounds overlap-safe: each crash/restart runs detached
            self.sim.process(
                self._down_up(victim, self.config.churn_downtime),
                name=f"fault:churn:{index}:{victim}",
            )

    def _pick_victim(self) -> Optional[str]:
        if self.churn_selector is not None:
            return self.churn_selector()
        online = sorted(
            name for name, node in self.network.nodes.items() if node.online
        )
        if not online:
            return None
        return self.sim.rng.choice("fault:churn", online)

    # -- per-call hooks ----------------------------------------------------------

    def link_fault(self, src: str, dst: str) -> Optional[BaseException]:
        """Loss/partition verdict for one call; ``None`` = deliverable."""
        cfg = self.config
        if cfg is None or src == dst:
            return None
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

    def service_fault(self, ctx: CallContext) -> Optional[RemoteError]:
        """Server-side error verdict for one dispatch; ``None`` = run the handler."""
        cfg = self.config
        if cfg is None:
            return None
        for rule in cfg.service_errors:
            if rule.service != ctx.service:
                continue
            if rule.method is not None and rule.method != ctx.method:
                continue
            if rule.dst is not None and rule.dst != ctx.dst:
                continue
            key = f"fault:svc:{ctx.service}.{ctx.method}:{ctx.dst}"
            if rule.rate > 0 and self.sim.rng.uniform(key, 0.0, 1.0) < rule.rate:
                self.service_errors_injected += 1
                cause = _synthetic_error_class(rule.error)(
                    f"injected failure in {ctx.endpoint} on {ctx.dst}"
                )
                return RemoteError(cause)
            break  # first matching rule decides
        return None

    def transfer_fault(self, site: str, path: str, rate: float) -> bool:
        """Legacy GridFTP fault knob, absorbed behind the plane.

        Draws on the historical ``gridftp-fail:{site}:{path}`` stream
        keys so existing seeded scenarios reproduce bit-for-bit; with
        ``rate <= 0`` no stream is touched at all.
        """
        if rate <= 0:
            return False
        hit = self.sim.rng.uniform(f"gridftp-fail:{site}:{path}", 0.0, 1.0) < rate
        if hit:
            self.transfer_faults_injected += 1
        return hit


__all__ = [
    "CrashSpec",
    "FaultInjected",
    "FaultPlane",
    "FaultsConfig",
    "LinkRule",
    "PartitionSpec",
    "ServiceErrorRule",
]
