"""Service-level objectives: sliding windows, error budgets, burn rates.

The paper judges GLARE by *observed behaviour* (throughput curves,
response tiers, load averages) but never closes the loop: nothing in
the system can say "this VO is meeting its obligations" or "this crash
was noticed within N seconds".  This module adds that judgement layer
on top of the raw tracing/metrics plane:

* :class:`SLOSpec` — a declarative objective over one RPC endpoint
  family: an **availability** target (fraction of requests that must
  succeed) or a **latency** target (fraction that must finish under a
  threshold), measured at either the *attempt* level (every pipeline
  pass, what a server-side SLI sees) or the *call* level (the outcome
  after retries, what the client experiences);
* :class:`SLOEngine` — records per-request good/bad events from the
  RPC pipeline (see
  :class:`~repro.net.interceptors.SLOLayer`), evaluates
  sliding-window **burn rates** on a fixed simulated-time cadence, and
  keeps a chronological alert log of fired/resolved
  :class:`BurnRateRule` alerts plus cumulative error-budget accounting
  per objective.

Burn rate follows the SRE convention: the windowed bad-event fraction
divided by the error budget (``1 - target``), so a burn of 1.0 spends
the budget exactly at the sustainable rate and a fast-window burn of
several multiples means an incident in progress.  Everything is
simulated-time and draw-free, so two same-seed runs produce identical
alert logs — the property the fig16 extension gates on.

A VO without configured SLOs carries no engine at all: the pipeline
layer is not installed and no per-call work happens (the null path
stays byte-identical, pinned by the determinism fingerprints).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.simkernel.primitives import Periodic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator

#: recognised objective kinds
AVAILABILITY = "availability"
LATENCY = "latency"

#: recognised measurement levels
ATTEMPT = "attempt"
CALL = "call"


@dataclass(frozen=True)
class BurnRateRule:
    """Fire an alert while the windowed burn rate meets ``threshold``.

    ``window`` is the sliding look-back in simulated seconds;
    ``threshold`` is the burn-rate multiple that trips the alert.  The
    classic pairing is a *fast* rule (short window, high threshold —
    pages quickly on a real incident) and a *slow* rule (long window,
    low threshold — catches sustained slow burns).
    """

    name: str
    window: float
    threshold: float

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"burn-rate rule {self.name!r}: window must be positive")
        if self.threshold <= 0:
            raise ValueError(f"burn-rate rule {self.name!r}: threshold must be positive")


#: default alert pair for availability objectives
DEFAULT_ALERTS: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast", window=30.0, threshold=4.0),
    BurnRateRule("slow", window=120.0, threshold=1.0),
)


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over an endpoint family.

    Attributes
    ----------
    name:
        Unique handle (used in alerts and reports).
    endpoint:
        ``service.method`` to match exactly, ``service.*`` for every
        method of one service, or ``*`` for all RPC traffic.
    objective:
        ``"availability"`` (good = the request succeeded) or
        ``"latency"`` (good = succeeded *and* finished within
        ``threshold_s``).
    target:
        Required good fraction in ``(0, 1)``; the error budget is
        ``1 - target``.
    threshold_s:
        Latency objectives only: the per-request deadline.
    level:
        ``"attempt"`` counts every pipeline pass (retries burn budget);
        ``"call"`` counts the post-retry outcome the client saw.
    alerts:
        Burn-rate alert rules (may be empty for report-only SLOs).
    """

    name: str
    endpoint: str
    objective: str = AVAILABILITY
    target: float = 0.99
    threshold_s: Optional[float] = None
    level: str = ATTEMPT
    alerts: Tuple[BurnRateRule, ...] = DEFAULT_ALERTS

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"SLO {self.name!r}: target must be in (0, 1)")
        if self.objective not in (AVAILABILITY, LATENCY):
            raise ValueError(f"SLO {self.name!r}: unknown objective {self.objective!r}")
        if self.objective == LATENCY and self.threshold_s is None:
            raise ValueError(f"SLO {self.name!r}: latency objective needs threshold_s")
        if self.level not in (ATTEMPT, CALL):
            raise ValueError(f"SLO {self.name!r}: unknown level {self.level!r}")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction."""
        return 1.0 - self.target

    def matches(self, endpoint: str) -> bool:
        """Whether ``endpoint`` (``service.method``) is governed by this SLO."""
        if self.endpoint == "*":
            return True
        if self.endpoint.endswith(".*"):
            return endpoint.startswith(self.endpoint[:-1])
        return endpoint == self.endpoint

    def classify(self, ok: bool, latency: float) -> bool:
        """Whether one request counts as *good* under this objective."""
        if not ok:
            return False
        if self.objective == LATENCY:
            return latency <= self.threshold_s
        return True


@dataclass
class SLOStatus:
    """Cumulative budget accounting for one objective."""

    name: str
    endpoint: str
    objective: str
    level: str
    target: float
    total: int
    bad: int

    @property
    def good_rate(self) -> float:
        return 1.0 - (self.bad / self.total) if self.total else 1.0

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    @property
    def budget_consumed(self) -> float:
        """Bad fraction as a multiple of the budget (1.0 = exactly spent)."""
        if not self.total:
            return 0.0
        return (self.bad / self.total) / self.budget

    @property
    def verdict(self) -> str:
        """``"met"`` while the bad fraction fits inside the budget.

        The boundary is FP-tolerant: a budget spent *exactly* (e.g.
        1 bad in 10 against a 0.9 target, where ``1 - 0.9`` already
        isn't representable) still counts as met.
        """
        return "met" if self.budget_consumed <= 1.0 + 1e-9 else "exhausted"


class _Window:
    """One objective's sliding event log, as time-ordered parallel arrays.

    ``ended[i]`` is when event *i* finished and ``bad[i]`` the
    objective's cumulative bad count up to and including it, so any
    suffix's bad count is one subtraction and a window's first event
    one ``bisect``.  ``base`` is the cumulative bad count of the last
    pruned event, ``horizon`` the longest look-back anyone asks for
    (the prune bound).  Events arrive in simulated-time order.
    """

    __slots__ = ("horizon", "ended", "bad", "base")

    def __init__(self, horizon: float) -> None:
        self.horizon = horizon
        self.ended: List[float] = []
        self.bad: List[int] = []
        self.base = 0

    def since(self, cutoff: float) -> Tuple[int, int]:
        """``(total, bad)`` over the events with ``ended > cutoff``."""
        first = bisect_right(self.ended, cutoff)
        total = len(self.ended) - first
        if not total:
            return 0, 0
        return total, self.bad[-1] - (self.bad[first - 1] if first else self.base)

    def prune(self, now: float) -> None:
        """Forget the events that ended a full ``horizon`` or more ago."""
        first = bisect_right(self.ended, now - self.horizon)
        if first:
            self.base = self.bad[first - 1]
            del self.ended[:first]
            del self.bad[:first]


class SLOEngine:
    """Records request outcomes and evaluates burn-rate alerts.

    Fed by the RPC pipeline (attempt level) and ``Network.call`` (call
    level); evaluated by a simulation process on a fixed
    ``eval_interval`` cadence.  All state is simulated-time and
    draw-free, so the alert log is deterministic per seed.
    """

    def __init__(self, specs, eval_interval: float = 5.0) -> None:
        specs = tuple(specs)
        if not specs:
            raise ValueError("an SLOEngine needs at least one SLOSpec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        if eval_interval <= 0:
            raise ValueError("eval_interval must be positive")
        self.specs: Tuple[SLOSpec, ...] = specs
        self.eval_interval = eval_interval
        #: the periodic :meth:`evaluate` loop; exists once bound to a
        #: simulator, whose clock :meth:`evaluate` reads through it
        self.evaluator: Optional[Periodic] = None
        #: per-spec sliding event windows, kept as long as the longest alert
        self._windows: Dict[str, _Window] = {
            spec.name: _Window(max((r.window for r in spec.alerts), default=0.0))
            for spec in specs
        }
        #: cumulative (total, bad) per spec — the error-budget ledger
        self._totals: Dict[str, List[int]] = {spec.name: [0, 0] for spec in specs}
        #: (endpoint, level) -> ((latency limit, window, totals), ...) of
        #: the governing specs, matched once per distinct endpoint
        self._governing: Dict[Tuple[str, str], tuple] = {}
        #: chronological fired/resolved entries
        self.alert_log: List[Dict] = []
        self._active: Dict[Tuple[str, str], Dict] = {}
        self.events_recorded = 0
        self.evaluations = 0

    # -- wiring -------------------------------------------------------------

    def bind(self, sim: "Simulator") -> None:
        self.evaluator = Periodic(
            sim, self.eval_interval, self.evaluate, "slo-evaluator"
        )

    def start(self) -> None:
        """Spawn the periodic evaluator process (idempotent)."""
        assert self.evaluator is not None, "SLOEngine.start() before bind()"
        self.evaluator.start()

    def stop(self) -> None:
        if self.evaluator is not None:
            self.evaluator.stop()

    @property
    def running(self) -> bool:
        return self.evaluator is not None and self.evaluator.running

    # -- event intake -------------------------------------------------------

    def record(self, endpoint: str, started: float, ended: float,
               ok: bool, level: str = ATTEMPT) -> None:
        """Fold one finished request into every governing objective."""
        governing = self._governing.get((endpoint, level))
        if governing is None:
            governing = self._governing[endpoint, level] = tuple(
                (spec.threshold_s if spec.objective == LATENCY else None,
                 self._windows[spec.name], self._totals[spec.name])
                for spec in self.specs
                if spec.level == level and spec.matches(endpoint))
        if not governing:
            return
        latency = ended - started
        for limit, window, totals in governing:
            totals[0] += 1
            if not ok or (limit is not None and latency > limit):
                totals[1] += 1
            window.ended.append(ended)
            window.bad.append(totals[1])
        self.events_recorded += 1

    # -- evaluation ---------------------------------------------------------

    def burn_rate(self, spec: SLOSpec, window: float, now: float) -> float:
        """Windowed bad fraction over the error budget (0 when idle)."""
        total, bad = self._windows[spec.name].since(now - window)
        if not total or not bad:
            return 0.0
        return (bad / total) / spec.budget

    def evaluate(self) -> None:
        """One evaluation tick: prune, compute burns, fire/resolve alerts."""
        assert self.evaluator is not None, "SLOEngine.evaluate() before bind()"
        now = self.evaluator.sim.now
        self.evaluations += 1
        for spec in self.specs:
            self._windows[spec.name].prune(now)
            for rule in spec.alerts:
                burn = self.burn_rate(spec, rule.window, now)
                key = (spec.name, rule.name)
                active = self._active.get(key)
                if burn >= rule.threshold and active is None:
                    entry = {"kind": "fired", "slo": spec.name,
                             "rule": rule.name, "at": now, "burn": burn}
                    self._active[key] = entry
                    self.alert_log.append(entry)
                elif burn < rule.threshold and active is not None:
                    del self._active[key]
                    self.alert_log.append({
                        "kind": "resolved", "slo": spec.name,
                        "rule": rule.name, "at": now, "burn": burn,
                    })

    # -- read side ----------------------------------------------------------

    def active_alerts(self) -> List[Dict]:
        """Currently-firing alerts, oldest first."""
        return sorted(self._active.values(), key=lambda e: (e["at"], e["slo"]))

    def alerts_fired(self) -> int:
        return sum(1 for e in self.alert_log if e["kind"] == "fired")

    def status(self, name: str) -> SLOStatus:
        """Cumulative budget status of one objective."""
        spec = next((s for s in self.specs if s.name == name), None)
        if spec is None:
            raise KeyError(f"unknown SLO {name!r}")
        total, bad = self._totals[name]
        return SLOStatus(name=spec.name, endpoint=spec.endpoint,
                         objective=spec.objective, level=spec.level,
                         target=spec.target, total=total, bad=bad)

    def statuses(self) -> List[SLOStatus]:
        return [self.status(spec.name) for spec in self.specs]

    def verdicts(self) -> Dict[str, str]:
        """``{slo name: "met" | "exhausted"}`` for every objective."""
        return {s.name: s.verdict for s in self.statuses()}


__all__ = [
    "ATTEMPT",
    "AVAILABILITY",
    "BurnRateRule",
    "CALL",
    "DEFAULT_ALERTS",
    "LATENCY",
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
]
