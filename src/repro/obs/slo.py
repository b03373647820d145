"""Service-level objectives: sliding windows, error budgets, burn rates.

The paper judges GLARE by *observed behaviour* (throughput curves,
response tiers, load averages) but never closes the loop: nothing in
the system can say "this VO is meeting its obligations" or "this crash
was noticed within N seconds".  This module adds that judgement layer
on top of the raw tracing/metrics plane:

* :class:`SLOSpec` — a declarative objective over one RPC endpoint
  family: an **availability** target (fraction of requests that must
  succeed) or a **latency** target (fraction that must finish under a
  threshold), measured at either the *attempt* level (every transport
  pass, what a server-side SLI sees) or the *call* level (the outcome
  after retries, what the client experiences);
* :class:`SLOEngine` — records per-request good/bad events from the
  RPC stack (one per attempt from the network's transport stage, one
  per call from the stage that owns the call), evaluates
  sliding-window **burn rates** on a fixed simulated-time cadence,
  notes each fired/resolved :class:`BurnRateRule` alert in the
  simulator's journal, and keeps cumulative error-budget accounting per
  objective;
* :func:`detection_timeline` — pairs the journal's fault-plane crashes
  with those alerts: **MTTD** is crash → first alert fired, **MTTR** is
  crash → the moment every alert has resolved again (the operator's
  "incident closed" signal).

Burn rate follows the SRE convention: the windowed bad-event fraction
divided by the error budget (``1 - target``), so a burn of 1.0 spends
the budget exactly at the sustainable rate and a fast-window burn of
several multiples means an incident in progress.  Everything is
simulated-time and draw-free, so two same-seed runs journal identical
alerts, and the detection timeline, a pure function of the journal,
repeats exactly — the properties the fig16 extension gates on.

A VO without configured SLOs carries no engine at all: the transport
records no SLI and no per-call work happens (the null path stays
byte-identical, pinned by the determinism fingerprints).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.simkernel.kernel import entries
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
        ``"attempt"`` counts every transport pass (retries burn budget);
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
    """One objective's sliding event log, as time-ordered typed arrays.

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
        self.ended = array("d")
        self.bad = array("q")
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

    Fed by the transport stage (attempt level) and ``Network.call``
    (call level); evaluated by a simulation process on a fixed
    ``eval_interval`` cadence.  All state is simulated-time and
    draw-free, so its journal entries are deterministic per seed.
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
        self._active: Dict[Tuple[str, str], Dict] = {}
        self.events_recorded = 0
        self.evaluations = 0

    # -- wiring -------------------------------------------------------------

    def bind(self, sim: "Simulator") -> None:
        self.evaluator = Periodic(
            sim, self.eval_interval, self.evaluate, "slo-evaluator"
        )

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
        sim = self.evaluator.sim
        now = sim.now
        self.evaluations += 1
        for spec in self.specs:
            self._windows[spec.name].prune(now)
            for rule in spec.alerts:
                burn = self.burn_rate(spec, rule.window, now)
                key = (spec.name, rule.name)
                active = self._active.get(key)
                if burn >= rule.threshold and active is None:
                    self._active[key] = sim.note(
                        "slo", "fired", slo=spec.name, rule=rule.name, burn=burn)
                elif burn < rule.threshold and active is not None:
                    del self._active[key]
                    sim.note("slo", "resolved", slo=spec.name, rule=rule.name,
                             burn=burn)

    # -- read side ----------------------------------------------------------

    def active_alerts(self) -> List[Dict]:
        """Currently-firing alerts, oldest first."""
        return sorted(self._active.values(), key=lambda e: (e["at"], e["slo"]))

    def alerts(self) -> List[Dict]:
        """Every fired / resolved entry, in order."""
        return entries(self.evaluator.sim.journal, "slo")

    def alerts_fired(self) -> int:
        return sum(1 for e in self.alerts() if e["kind"] == "fired")

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


@dataclass
class DetectionRecord:
    """One crash paired with its alert timeline."""

    site: str
    crash_at: float
    detected_at: Optional[float]
    recovered_at: Optional[float]

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def mttd(self) -> Optional[float]:
        """Crash → first burn-rate alert fired."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.crash_at

    @property
    def mttr(self) -> Optional[float]:
        """Crash → every alert resolved (incident closed)."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.crash_at


def detection_timeline(journal: List[Dict]) -> List[DetectionRecord]:
    """Pair each fault-plane crash in ``journal`` with the SLO alerts.

    Crashes are matched in journal order: each consumes the first
    un-consumed ``fired`` entry at or after its crash time (MTTD), and
    recovery is the first subsequent moment the active-alert set drains
    to empty (MTTR).  Undetected crashes get ``detected_at=None``.
    """
    alerts = entries(journal, "slo")
    fired = [e for e in alerts if e["kind"] == "fired"]
    # moments when the active-alert set returns to empty
    quiet: List[float] = []
    active = set()
    for entry in alerts:
        key = (entry["slo"], entry["rule"])
        if entry["kind"] == "fired":
            active.add(key)
        else:
            active.discard(key)
            if not active:
                quiet.append(entry["at"])

    records: List[DetectionRecord] = []
    fired_index = 0
    for crash in entries(journal, "faults", "crash"):
        detected_at: Optional[float] = None
        while fired_index < len(fired):
            entry = fired[fired_index]
            if entry["at"] >= crash["at"]:
                detected_at = entry["at"]
                fired_index += 1
                break
            fired_index += 1
        recovered_at: Optional[float] = None
        if detected_at is not None:
            recovered_at = next((t for t in quiet if t >= detected_at), None)
        records.append(DetectionRecord(
            site=crash["site"], crash_at=crash["at"],
            detected_at=detected_at, recovered_at=recovered_at,
        ))
    return records


__all__ = [
    "ATTEMPT",
    "AVAILABILITY",
    "BurnRateRule",
    "CALL",
    "DEFAULT_ALERTS",
    "DetectionRecord",
    "LATENCY",
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
    "detection_timeline",
]
