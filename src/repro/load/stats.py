"""Memory-flat streaming measurement for open-loop workloads.

A million-arrival run must not hold a million response times.  This
module measures in O(1) memory per op class:

``StreamStats``
    Per-op latency histograms (:class:`repro.obs.metrics.Histogram`:
    fixed size, an integer-nanosecond total so the mean and the
    fingerprint are identical however per-worker shards are merged)
    plus per-outcome counters and coarse per-window
    goodput/shed/timeout counts (keyed by ``int(t // window)``, so the
    window table grows with the horizon, never with the arrival
    count).

``CommutativeDigest``
    An order-independent result fingerprint: each record hashes to a
    128-bit integer and the digest is their modular sum, so shards
    folded in any order — serial, ``repro.runner`` fan-out, reversed —
    produce the same final hexdigest in O(1) memory.

Everything merges commutatively; ``repro.runner`` fan-out workers each
build a shard and the driver merges in completion order without
affecting any reported number.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Dict, Iterable, List

from repro.obs.metrics import Histogram

__all__ = ["OpStats", "StreamStats", "CommutativeDigest"]

_DIGEST_MASK = (1 << 128) - 1

#: outcome slots in each window's counter row
_WIN_OK, _WIN_SHED, _WIN_TIMEOUT, _WIN_FAILED = range(4)


class OpStats:
    """Outcome counters + latency histogram for one op class."""

    __slots__ = ("completed", "shed", "timeouts", "failed", "latency")

    def __init__(self) -> None:
        self.completed = 0
        self.shed = 0
        self.timeouts = 0
        self.failed = 0
        self.latency = Histogram()

    @property
    def offered(self) -> int:
        return self.completed + self.shed + self.timeouts + self.failed

    def merge(self, other: "OpStats") -> None:
        self.completed += other.completed
        self.shed += other.shed
        self.timeouts += other.timeouts
        self.failed += other.failed
        self.latency.merge(other.latency)


class StreamStats:
    """Streaming per-op and per-window measurement of an open-loop run.

    Memory is bounded by ``#ops * histogram_size + horizon / window``
    — independent of the arrival count, which is the whole point.
    """

    __slots__ = ("window", "ops", "windows", "digest")

    def __init__(self, window: float = 5.0) -> None:
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.ops: Dict[str, OpStats] = {}
        self.windows: Dict[int, List[int]] = {}
        self.digest = CommutativeDigest()

    def _op(self, op: str) -> OpStats:
        stats = self.ops.get(op)
        if stats is None:
            stats = self.ops[op] = OpStats()
        return stats

    def _window(self, t: float) -> List[int]:
        key = int(t // self.window)
        row = self.windows.get(key)
        if row is None:
            row = self.windows[key] = [0, 0, 0, 0]
        return row

    def ok(self, op: str, latency: float, t: float) -> None:
        stats = self._op(op)
        stats.completed += 1
        stats.latency.observe(latency)
        self._window(t)[_WIN_OK] += 1

    def shed(self, op: str, t: float) -> None:
        self._op(op).shed += 1
        self._window(t)[_WIN_SHED] += 1

    def timeout(self, op: str, t: float) -> None:
        self._op(op).timeouts += 1
        self._window(t)[_WIN_TIMEOUT] += 1

    def fail(self, op: str, t: float) -> None:
        self._op(op).failed += 1
        self._window(t)[_WIN_FAILED] += 1

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.ops.values())

    @property
    def shed_total(self) -> int:
        return sum(s.shed for s in self.ops.values())

    @property
    def timeout_total(self) -> int:
        return sum(s.timeouts for s in self.ops.values())

    @property
    def failed_total(self) -> int:
        return sum(s.failed for s in self.ops.values())

    @property
    def offered(self) -> int:
        return sum(s.offered for s in self.ops.values())

    def merge(self, other: "StreamStats") -> None:
        if other.window != self.window:
            raise ValueError(
                f"cannot merge StreamStats with windows {self.window} != {other.window}"
            )
        for op, stats in other.ops.items():
            self._op(op).merge(stats)
        for key, row in other.windows.items():
            mine = self.windows.get(key)
            if mine is None:
                self.windows[key] = list(row)
            else:
                for i in range(4):
                    mine[i] += row[i]
        self.digest.merge(other.digest)

    def fingerprint(self) -> str:
        """Order-independent digest of the whole measurement state."""
        parts = [f"window={self.window!r}", f"records={self.digest.hexdigest()}"]
        for op in sorted(self.ops):
            s = self.ops[op]
            parts.append(
                f"{op}:{s.completed},{s.shed},{s.timeouts},{s.failed},"
                f"{s.latency.fingerprint()}"
            )
        for key in sorted(self.windows):
            parts.append(f"w{key}:{','.join(str(v) for v in self.windows[key])}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def footprint_bytes(self) -> int:
        """Approximate resident size of the measurement state.

        Used by the benchmark gate to prove flatness: the footprint of
        a 10^6-arrival run must equal that of a 10^5-arrival run with
        the same ops, windows, and horizon shape.
        """
        total = sys.getsizeof(self.ops) + sys.getsizeof(self.windows)
        for op, stats in self.ops.items():
            total += sys.getsizeof(op)
            total += sys.getsizeof(stats.latency.counts)
            total += sum(sys.getsizeof(c) for c in stats.latency.counts)
        for key, row in self.windows.items():
            total += sys.getsizeof(key) + sys.getsizeof(row)
        return total

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "completed": self.completed,
            "shed": self.shed_total,
            "timeouts": self.timeout_total,
            "failed": self.failed_total,
            "ops": {op: dict(self.ops[op].latency.to_dict(),
                             completed=self.ops[op].completed,
                             shed=self.ops[op].shed,
                             timeouts=self.ops[op].timeouts,
                             failed=self.ops[op].failed)
                    for op in sorted(self.ops)},
            "fingerprint": self.fingerprint(),
        }


class CommutativeDigest:
    """Order-independent fold of string records into one fingerprint.

    Each record contributes ``sha256(record)[:16]`` as a 128-bit
    integer summed modulo 2^128 — addition commutes, so shards merged
    in any order agree.  Collision resistance is weaker than a
    sequential hash chain (a generalised-birthday adversary could
    forge a multiset) but far beyond what seed-determinism checking
    needs, and it is the only scheme that is simultaneously O(1)
    memory, order-independent, and mergeable.
    """

    __slots__ = ("acc", "n")

    def __init__(self) -> None:
        self.acc = 0
        self.n = 0

    def fold(self, record: str) -> None:
        digest = hashlib.sha256(record.encode()).digest()
        self.acc = (self.acc + int.from_bytes(digest[:16], "big")) & _DIGEST_MASK
        self.n += 1

    def fold_many(self, records: Iterable[str]) -> None:
        for record in records:
            self.fold(record)

    def merge(self, other: "CommutativeDigest") -> None:
        self.acc = (self.acc + other.acc) & _DIGEST_MASK
        self.n += other.n

    def hexdigest(self) -> str:
        return hashlib.sha256(f"{self.n}:{self.acc:032x}".encode()).hexdigest()
