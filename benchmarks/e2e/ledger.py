"""The outside-in layer ledger: who spent the host time, who made the calls.

Layers are measured from the benchmark's own files.  Generators make
wall-clock spans around ``Network.call`` meaningless (a span would
cover every other process that ran while this one was suspended), so
host time is attributed with ``cProfile`` instead: the profiler charges
every resume of a generator frame to that frame's function.

* :func:`attribute` folds a profile into per-layer self-time shares and
  call counts.  A frame belongs to the ``src/repro/<package>`` it was
  defined in; builtin, stdlib, numpy and networkx frames are charged to
  their nearest ``repro`` caller through the profiler's caller edges.
* :class:`CallTally` counts entries into the public ``Network.call``
  (a generator function: the profiler sees its resumes, not its calls).
* :func:`span_ledger` folds the program's own simulated-time spans into
  per-op self time by span-name prefix.
* :class:`RunQueueSampler` is a simulation process of the benchmark's
  own that samples every site's run queue.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from adapter import BENCH_ROOT, SRC_ROOT, Simulator, estimate_size, self_time_breakdown

#: the packages under ``src/repro`` that are layers of their own, then
#: the benchmark's driver, then everything else
LAYERS = ("simkernel", "net", "wsrf", "glare", "mds", "gram", "gridftp",
          "site", "load", "obs", "orchestrate", "bench", "other")

_REPRO = str(SRC_ROOT / "repro") + "/"
_BENCH = str(BENCH_ROOT) + "/"

#: explicit generator stepping — what a process kernel does once per resume
_STEP_BUILTINS = (
    "<method 'send' of 'generator' objects>",
    "<method 'throw' of 'generator' objects>",
)


def owner_of(code) -> str | None:
    """The layer a profiled frame belongs to, or None for foreign frames."""
    if isinstance(code, str):  # builtin
        return None
    filename = code.co_filename
    if filename.startswith(_REPRO):
        package = Path(filename[len(_REPRO):]).parts[0]
        return package if package in LAYERS else "other"
    if filename.startswith(_BENCH):
        return "bench"
    return None


def _shares(code, owner, incoming, weight: int, memo, active) -> Dict[str, float]:
    """Fractions of a frame's cost owed by each layer.

    An owned frame owes itself.  A foreign frame is split over its
    callers in proportion to ``weight`` (1 = call count, 2 = total
    time), recursively until an owned frame is reached.
    """
    layer = owner[code]
    if layer is not None:
        return {layer: 1.0}
    known = memo.get(code)
    if known is not None:
        return known
    callers = incoming.get(code)
    if not callers or code in active:  # a root, or foreign recursion
        return {"other": 1.0}
    active.add(code)
    total = sum(edge[weight] for edge in callers)
    out: Dict[str, float] = defaultdict(float)
    for edge in callers:
        share = edge[weight] / total if total > 0 else 1.0 / len(callers)
        for name, part in _shares(edge[0], owner, incoming, weight,
                                  memo, active).items():
            out[name] += share * part
    active.discard(code)
    memo[code] = out
    return out


def attribute(stats: Iterable) -> Tuple[Dict[str, float], Dict[str, float], int]:
    """Fold ``Profile.getstats()`` into the layer ledger.

    Returns ``(self_seconds_by_layer, calls_by_layer, total_calls)``.
    Both dicts have every name of :data:`LAYERS`; the seconds sum to the
    profiled total and the call counts to ``total_calls``.
    """
    stats = list(stats)
    owner = {entry.code: owner_of(entry.code) for entry in stats}
    incoming: Dict[object, List[tuple]] = defaultdict(list)
    for entry in stats:
        for sub in entry.calls or ():
            owner.setdefault(sub.code, owner_of(sub.code))
            incoming[sub.code].append((entry.code, sub.callcount, sub.totaltime))

    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    by_count: dict = {}
    by_time: dict = {}
    edge_seconds: Dict[object, float] = defaultdict(float)
    edge_calls: Dict[object, int] = defaultdict(int)
    for entry in stats:
        layer = owner[entry.code]
        if layer is not None:
            seconds[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if owner[sub.code] is not None:
                continue
            edge_seconds[sub.code] += sub.inlinetime
            edge_calls[sub.code] += sub.callcount
            for name, part in _shares(entry.code, owner, incoming, 2,
                                      by_time, set()).items():
                seconds[name] += sub.inlinetime * part
            for name, part in _shares(entry.code, owner, incoming, 1,
                                      by_count, set()).items():
                calls[name] += sub.callcount * part
    total_calls = 0
    for entry in stats:
        total_calls += entry.callcount
        if owner[entry.code] is None:
            # whatever no caller edge accounts for (profile roots)
            seconds["other"] += entry.inlinetime - edge_seconds[entry.code]
            calls["other"] += entry.callcount - edge_calls[entry.code]
    return seconds, calls, total_calls


def profile_metrics(stats: Iterable, ops: int) -> Dict[str, float]:
    """Per-op layer metrics of one profiled timed section.

    Shares and call counts per layer from :func:`attribute`, plus exact
    call counts of the kernel's public constructors, the size estimator,
    and explicit generator steps (= process resumes).
    """
    stats = list(stats)
    seconds, calls, total_calls = attribute(stats)
    profiled = sum(seconds.values())
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_share"] = seconds[name] / profiled
        out[f"{name}.pycalls_per_op"] = calls[name] / ops
    out["py.calls_per_op"] = total_calls / ops
    wanted = {
        Simulator.timeout.__code__: "simkernel.timeouts_per_op",
        Simulator.process.__code__: "simkernel.spawns_per_op",
        estimate_size.__code__: "net.size_estimates_per_op",
    }
    counts = dict.fromkeys([*wanted.values(), "simkernel.resumes_per_op"], 0)
    for entry in stats:
        if entry.code in _STEP_BUILTINS:
            counts["simkernel.resumes_per_op"] += entry.callcount
        elif entry.code in wanted:
            counts[wanted[entry.code]] += entry.callcount
    out.update({name: count / ops for name, count in counts.items()})
    return out


def top_functions(stats: Iterable, limit: int = 25) -> List[Dict[str, object]]:
    """The heaviest frames by self time, for the trace file."""
    rows = []
    for entry in sorted(stats, key=lambda e: -e.inlinetime)[:limit]:
        code = entry.code
        where = code if isinstance(code, str) else (
            f"{code.co_filename.replace(_REPRO, 'repro/')}:"
            f"{code.co_firstlineno}:{code.co_name}"
        )
        rows.append({
            "function": where,
            "layer": owner_of(code) or "foreign",
            "calls": entry.callcount,
            "self_s": entry.inlinetime,
            "generator": (not isinstance(code, str)
                          and bool(code.co_flags & inspect.CO_GENERATOR)),
        })
    return rows


class CallTally:
    """Counts entries into ``network.call`` by wrapping the bound method."""

    def __init__(self, network) -> None:
        self.rpcs = 0
        self.deadline_calls = 0
        inner = network.call

        def call(*args, **kwargs):
            self.rpcs += 1
            retry = kwargs.get("retry") if len(args) < 8 else args[7]
            if retry is not None and retry.engaged:
                self.deadline_calls += 1
            return inner(*args, **kwargs)

        network.call = call


class Snapshot:
    """Public counters of a network and its services at one instant."""

    def __init__(self, network) -> None:
        self.messages = network.total_messages
        self.bytes = network.total_bytes
        self.retries = network.retries_total
        services = [s for node in network.nodes.values()
                    for s in node.services.values()]
        self.shed = sum(s.requests_shed for s in services)
        self.dispatches = self.shed + sum(
            s.requests_handled + s.requests_failed for s in services
        )
        self.busy = {name: node.cpu.busy_time
                     for name, node in network.nodes.items()}
        self.now = network.sim.now


def counter_metrics(network, before: Snapshot, after: Snapshot,
                    tally: CallTally, ops: int) -> Dict[str, float]:
    """Per-op deltas of the public counters over one timed section."""
    retries = after.retries - before.retries
    return {
        "net.rpcs_per_op": tally.rpcs / ops,
        "net.deadline_attempts_per_op": (tally.deadline_calls + retries) / ops,
        "net.retries_per_op": retries / ops,
        "net.dispatches_per_op": (after.dispatches - before.dispatches) / ops,
        "net.shed_per_op": (after.shed - before.shed) / ops,
        "net.wire_kb_per_op": (after.bytes - before.bytes) / 1024.0 / ops,
    }


def busiest_cpu_util(network, before: Snapshot, after: Snapshot) -> float:
    """Core utilisation of the busiest site over the snapshot interval."""
    elapsed = after.now - before.now
    if elapsed <= 0:
        return 0.0
    return max(
        (after.busy[name] - before.busy.get(name, 0.0))
        / (elapsed * network.nodes[name].cpu.cores)
        for name in after.busy
    )


class RunQueueSampler:
    """Samples the longest site run queue every ``interval`` sim-seconds."""

    def __init__(self, network, interval: float) -> None:
        self.peak = 0
        self._cpus = [node.cpu for node in network.nodes.values()]
        self._sim = network.sim
        self._interval = interval
        network.sim.process(self._loop(), name="e2e-runq-sampler")

    def _loop(self):
        timeout = self._sim.timeout
        while True:
            yield timeout(self._interval)
            longest = max(cpu.run_queue_length for cpu in self._cpus)
            if longest > self.peak:
                self.peak = longest


#: span-name prefixes -> ledger metric (mean simulated self time per op)
SPAN_GROUPS = {
    "net.sim_rpc_self_ms": ("rpc:",),
    "net.sim_serve_self_ms": ("serve:",),
    "glare.sim_self_ms": ("glare:", "tier:"),
    "glare.sim_deploy_self_ms": ("deploy:", "install:"),
}


def span_ledger(tracer, since: float, ops: int) -> Tuple[Dict[str, float], List[dict]]:
    """Mean simulated self-time per op by span prefix, plus the per-name rows."""
    spans = [s for s in tracer.spans if s.start >= since]
    breakdown = self_time_breakdown(spans)
    totals = dict.fromkeys(SPAN_GROUPS, 0.0)
    for stat in breakdown:
        for metric, prefixes in SPAN_GROUPS.items():
            if stat.name.startswith(prefixes):
                totals[metric] += stat.self_s
    rows = [
        {"span": stat.name, "count": stat.count, "total_s": stat.total_s,
         "self_s": stat.self_s, "max_s": stat.max_s}
        for stat in breakdown[:40]
    ]
    return {name: 1000.0 * total / ops for name, total in totals.items()}, rows
