"""Fig. 10: registry vs index throughput under concurrent clients.

"We compared ... Activity Type Registry with the GT4 Index Service
(WS-MDS) by registering multiple activity type WS-Resources in both
services.  We performed experiments with and without transport level
security ... This experiment was performed with both WS-MDS Index and
activity type registry services running on the same Grid site with
same number of registered activity types, whereas clients were
distributed among 7 other sites."

Reproduction: one server site, 7 client sites, the same ``N`` synthetic
activity-type documents registered in the server's ATR and (in a
separate run, to avoid interference) in its WS-MDS index.  Clients are
closed-loop: registry clients issue named ``lookup_type`` requests (the
hash-table path); index clients issue the equivalent XPath query.
Expected shape: registry ≈ 2× index throughput, and https roughly
halves both (crypto CPU on the saturated server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence

from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_multi_series
from repro.experiments.workload import (
    measure_throughput,
    spawn_clients,
    synthetic_activity_type,
    synthetic_type_doc,
)
from repro.glare.registry import ActivityTypeRegistry, ATR_SERVICE
from repro.mds.index import IndexService
from repro.net.network import Network
from repro.net.topology import Topology
from repro.net.transport import SecurityPolicy
from repro.runner import WorkUnit
from repro.simkernel import Simulator
from repro.wsrf.resource import EndpointReference

SERVER = "server"
N_CLIENT_SITES = 7
DEFAULT_TYPES = 30
HORIZON = 30.0
WARMUP = 5.0


@dataclass
class Fig10Point:
    service: str  # "registry" | "index"
    security: str  # "http" | "https"
    clients: int
    throughput: float  # requests per second
    mean_response_ms: float


#: how a request names type number ``index``, by lookup mechanism: the
#: hash-table path takes the name, the scan the XPath that finds it
PAYLOADS = {
    "lookup_type": "type{:04d}".format,
    "query": "//ActivityTypeEntry[@name='type{:04d}']".format,
}


def _build(service: str, secure: bool, n_types: int, seed: int,
           per_visit_cost: float = 8e-6, heap_node_budget: float = 20000.0,
           cpu_fixed: float = 0.0035):
    """One server holding ``n_types`` documents, seven client sites.

    The three calibrated constants (XPath scan cost per node, the
    index's heap budget, TLS crypto CPU per call) default to the
    paper-point values; ``repro sensitivity`` sweeps them.
    """
    sim = Simulator(seed=seed)
    topo = Topology.star(SERVER, [f"c{i}" for i in range(N_CLIENT_SITES)],
                         latency=0.004, bandwidth=12.5e6)
    policy = (SecurityPolicy.https(cpu_fixed=cpu_fixed) if secure
              else SecurityPolicy.http())
    net = Network(sim, topo, security=policy)
    net.add_node(SERVER, cores=2)
    for i in range(N_CLIENT_SITES):
        net.add_node(f"c{i}", cores=2)

    if service == "registry":
        atr = ActivityTypeRegistry(net, SERVER, per_visit_cost=per_visit_cost)
        for index in range(n_types):
            atr.add_local_type(synthetic_activity_type(index))
        return sim, net, ATR_SERVICE, "lookup_type"
    index_service = IndexService(net, SERVER, per_visit_cost=per_visit_cost,
                                 heap_node_budget=heap_node_budget)
    for index in range(n_types):
        epr = EndpointReference(address=f"{SERVER}/mds-index",
                                service="mds-index", key=f"type{index:04d}")
        index_service.register_document(epr, synthetic_type_doc(index))
    return sim, net, "mds-index", "query"


def run_fig10_point(service: str, secure: bool, clients: int,
                    n_types: int = DEFAULT_TYPES, seed: int = 3,
                    **calibration: float) -> Fig10Point:
    """Measure one (service, security, client-count) throughput point;
    ``calibration`` passes through to :func:`_build`."""
    sim, net, service_name, method = _build(
        service, secure, n_types, seed, **calibration)
    payload_for = PAYLOADS[method]

    def request_factory(client_index: int):
        site = f"c{client_index % N_CLIENT_SITES}"

        def request() -> Generator:
            yield from net.call(
                site, SERVER, service_name, method,
                payload=payload_for(client_index % n_types),
            )

        return request

    stats = spawn_clients(sim, clients, request_factory, warmup=WARMUP)
    throughput = measure_throughput(sim, stats, horizon=HORIZON, warmup=WARMUP)
    return Fig10Point(
        service=service,
        security="https" if secure else "http",
        clients=clients,
        throughput=throughput,
        mean_response_ms=stats.mean_response * 1000.0,
    )


def format_fig10(points: List[Fig10Point]) -> str:
    xs = sorted({p.clients for p in points})
    series: Dict[str, List[float]] = {}
    for point in points:
        series.setdefault(f"{point.service}/{point.security}", []).append(
            round(point.throughput, 1)
        )
    return format_multi_series(
        "Fig. 10 — throughput (req/s) vs concurrent clients",
        "clients", xs, series,
    )


def _units(client_counts: Sequence[int]) -> List[WorkUnit]:
    """All four series of Fig. 10, one unit per point."""
    return [
        WorkUnit(f"fig10:{service}:{'https' if secure else 'http'}:{clients}",
                 "repro.experiments.fig10:run_fig10_point",
                 {"service": service, "secure": secure, "clients": clients})
        for service in ("registry", "index")
        for secure in (False, True)
        for clients in client_counts
    ]


def _check(results: Results) -> None:
    """Paper Fig. 10: the registry sustains roughly twice the index's
    saturated throughput ("Index Service is 50% slower than Activity
    Registry because of its XPath-based querying mechanism") and
    transport-level security costs both roughly half of theirs."""
    points = list(results.values())

    def series(service: str, security: str) -> List[float]:
        return [p.throughput
                for p in sorted(points, key=lambda p: p.clients)
                if p.service == service and p.security == security]

    registry_http = max(series("registry", "http"))
    index_http = max(series("index", "http"))
    assert 1.4 < registry_http / index_http < 3.0, (
        f"fig10: registry/index saturated throughput {registry_http:.1f}/"
        f"{index_http:.1f} is not ~2x")
    for service, saturated, floor in (("registry", registry_http, 1.6),
                                      ("index", index_http, 1.3)):
        cost = saturated / max(series(service, "https"))
        assert floor < cost < 3.2, (
            f"fig10: TLS divides {service} throughput by {cost:.2f}, not ~2")
    climb = series("registry", "http")
    assert len(climb) < 2 or climb[0] < climb[-1], (
        "fig10: registry throughput does not grow with clients")


EXPERIMENT = Experiment(
    name="fig10",
    summary="registry vs WS-MDS index throughput under concurrent clients",
    quick=(1, 4, 16),
    full=(1, 2, 4, 6, 8, 10, 12, 14, 16),
    units=_units,
    render=lambda results: format_fig10(list(results.values())),
    check=_check,
)
