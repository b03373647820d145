"""Fig. 13: 1-minute load average vs requesters and notification sinks.

"Fig. 13 shows the change in the 1-minute load average as the number of
clients (requesters) and event notification listeners (sinks)
increases ... The highest load average occurs when the notification
rate is 1 sec.  It peaks slightly above 16 corresponding to 210 sinks.
Load average is proportional to the notification rate.  The load
average against the number of requesters peaks just below 5."

Reproduction: the Activity Type Registry host publishes resource-update
notifications to ``n`` subscribed sinks every ``rate`` seconds while a
Unix-style exponentially-damped sampler tracks its run queue.  In the
requester series, clients with a short think time issue named lookups.
The load average emerges from genuine queueing: each delivery burns
publisher CPU, so at 210 sinks and a 1 s rate the host sits just below
saturation where the M/M/c queue blows up to ~16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence, Tuple

from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_multi_series
from repro.experiments.workload import spawn_clients, synthetic_type_doc
from repro.glare.model import ActivityType
from repro.glare.registry import ActivityTypeRegistry, ATR_SERVICE
from repro.net.network import Network
from repro.net.topology import Topology
from repro.net.transport import SecurityPolicy
from repro.runner import WorkUnit
from repro.simkernel import LoadAverage, Simulator
from repro.simkernel.errors import Interrupt
from repro.wsrf.notification import NotificationBroker, NotificationSink

SERVER = "server"
N_CLIENT_SITES = 7
N_TYPES = 30
HORIZON = 300.0
SETTLE = 120.0  # ignore samples before the queue reaches steady state

#: delivery CPU demand — calibrated so 210 sinks at 1 Hz put the
#: 2-core registry host just below saturation (utilisation ~0.95)
PUBLISH_DEMAND = 0.0088
#: requester think time (interactive clients, not a tight loop)
REQUESTER_THINK = 0.5


@dataclass
class Fig13Point:
    series: str  # "requesters" or "sinks@<rate>s"
    count: int
    load_average: float


def _build(seed: int):
    sim = Simulator(seed=seed)
    topo = Topology.star(SERVER, [f"c{i}" for i in range(N_CLIENT_SITES)],
                         latency=0.004, bandwidth=12.5e6)
    net = Network(sim, topo, security=SecurityPolicy.http())
    server = net.add_node(SERVER, cores=2)
    for i in range(N_CLIENT_SITES):
        net.add_node(f"c{i}", cores=4)
    atr = ActivityTypeRegistry(net, SERVER)
    for index in range(N_TYPES):
        atr.add_local_type(ActivityType.from_xml(synthetic_type_doc(index)))
    loadavg = LoadAverage(sim, server.cpu, window=60.0, interval=5.0)
    loadavg.start()
    return sim, net, atr, loadavg


def run_requester_point(count: int, seed: int = 13) -> Fig13Point:
    """Load average with ``count`` think-time lookup clients."""
    sim, net, atr, loadavg = _build(seed)

    def request_factory(index: int):
        site = f"c{index % N_CLIENT_SITES}"

        def request() -> Generator:
            yield from net.call(
                site, SERVER, ATR_SERVICE, "lookup_type",
                payload=f"type{index % N_TYPES:04d}",
            )

        return request

    spawn_clients(sim, count, request_factory, think_time=REQUESTER_THINK,
                  exponential_think=True)
    sim.run(until=HORIZON)
    return Fig13Point("requesters", count, loadavg.mean(since=SETTLE))


def run_sink_point(count: int, rate: float, seed: int = 13) -> Fig13Point:
    """Load average with ``count`` sinks notified every ``rate`` seconds.

    Each sink listens on its own topic (it registered for changes of a
    specific resource), so deliveries are independent streams: each
    stream fires at the given mean rate with memoryless intervals and a
    random phase, not as one synchronized 210-way burst.
    """
    sim, net, atr, loadavg = _build(seed)
    broker = NotificationBroker(net, SERVER, publish_demand=PUBLISH_DEMAND)
    for index in range(count):
        site = f"c{index % N_CLIENT_SITES}"
        sink = NotificationSink(net, site, name=f"sink-{index}")
        broker.subscribe(f"type-updates-{index}", site, sink.name)

    def notifier(index: int) -> Generator:
        stream = f"notify-{index}"
        try:
            # random phase so streams don't align
            yield sim.timeout(sim.rng.uniform(stream, 0.0, rate))
            while True:
                broker.publish(f"type-updates-{index}",
                               {"change": "resource-updated"})
                yield sim.timeout(sim.rng.exponential(stream, rate))
        except Interrupt:
            return

    for index in range(count):
        sim.process(notifier(index), name=f"notifier-{index}")
    sim.run(until=HORIZON)
    return Fig13Point(f"sinks@{rate:g}s", count, loadavg.mean(since=SETTLE))


def format_fig13(points: List[Fig13Point]) -> str:
    xs = sorted({p.count for p in points})
    series: Dict[str, List[float]] = {}
    series_xs: Dict[str, List[int]] = {}
    for point in points:
        series.setdefault(point.series, []).append(round(point.load_average, 2))
        series_xs.setdefault(point.series, []).append(point.count)
    return format_multi_series(
        "Fig. 13 — 1-minute load average vs concurrent clients / sinks",
        "count", xs, series, series_xs=series_xs,
    )


def _units(
    grid: Tuple[Sequence[int], Sequence[int], Sequence[float]]
) -> List[WorkUnit]:
    """The requester series, then one sink series per notification rate."""
    requester_counts, sink_counts, rates = grid
    units = [
        WorkUnit(f"fig13:requesters:{count}",
                 "repro.experiments.fig13:run_requester_point",
                 {"count": count})
        for count in requester_counts
    ]
    units += [
        WorkUnit(f"fig13:sinks@{rate:g}s:{count}",
                 "repro.experiments.fig13:run_sink_point",
                 {"count": count, "rate": rate})
        for rate in rates
        for count in sink_counts
    ]
    return units


def _check(results: Results) -> None:
    """Paper Fig. 13: load grows with the number of sinks and with the
    notification rate, "peaks slightly above 16 corresponding to 210
    sinks" at a 1 s rate, and against requesters "peaks just below 5".
    A claim whose points the grid lacks is skipped, never loosened."""
    loads = {(p.series, p.count): p.load_average for p in results.values()}
    claims = (
        ("210 sinks at a 1 s rate load the host to ~16",
         lambda peak: 8.0 < peak < 32.0, [("sinks@1s", 210)]),
        ("load grows with the number of sinks",
         lambda idle, mid, peak: idle < mid < peak,
         [("sinks@1s", 0), ("sinks@1s", 120), ("sinks@1s", 210)]),
        ("load grows with the notification rate",
         lambda slow, peak: 0 < slow < peak,
         [("sinks@5s", 210), ("sinks@1s", 210)]),
        ("a 10 s rate loads no more than a 5 s rate",
         lambda slower, slow: slower <= slow,
         [("sinks@10s", 210), ("sinks@5s", 210)]),
    )
    for claim, holds, needs in claims:
        if all(key in loads for key in needs):
            measured = [loads[key] for key in needs]
            assert holds(*measured), f"fig13: {claim} — measured {measured}"
    if ("requesters", 210) in loads:  # the series reaches its peak
        peak = max(load for (series, _), load in loads.items()
                   if series == "requesters")
        assert 1.0 < peak < 6.0, (
            f"fig13: the requester series peaks at {peak:.2f}, not just below 5")


_COUNTS = (0, 30, 60, 90, 120, 150, 180, 210)

EXPERIMENT = Experiment(
    name="fig13",
    summary="1-minute load average vs requesters and notification sinks",
    quick=((0, 120, 210), (0, 120, 210), (1.0, 5.0)),
    full=(_COUNTS, _COUNTS, (1.0, 5.0, 10.0)),
    units=_units,
    render=lambda results: format_fig13(list(results.values())),
    check=_check,
)
