"""Layer probes: isolated, untraced calls into each package's public API.

Each probe builds its fixture once, then runs small fixed batches until
its time slice is used (at least three), and reports the median batch
rate in calls per host second.  A probe says how fast a layer is on its
own; the traced pass says how much of a workload that layer is.  The
README's table records which end-to-end metric each probe should move.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Generator

from adapter import (
    CohortInjector,
    DeploymentSpec,
    DictBackend,
    EchoService,
    MetricsRegistry,
    Network,
    Observed,
    Overloaded,
    Planner,
    PoissonProcess,
    RetryPolicy,
    Simulator,
    SiteObservation,
    StorageConfig,
    StreamStats,
    Topology,
    Tracer,
    XPathQuery,
    build_vo,
    estimate_size,
    get_application,
    parse_xml,
)
from workloads import TYPE_XML

Batch = Callable[[], int]


def measure(batch: Batch, budget: float) -> float:
    """Median calls/s over repeated ``batch()`` runs within ``budget`` seconds."""
    rates = []
    deadline = time.perf_counter() + budget
    while len(rates) < 3 or time.perf_counter() < deadline:
        started = time.perf_counter()
        calls = batch()
        rates.append(calls / (time.perf_counter() - started))
    return statistics.median(rates)


# -- simkernel ---------------------------------------------------------------


def kernel_events() -> Batch:
    def batch() -> int:
        sim = Simulator(seed=1)

        def ticker(index: int) -> Generator:
            delay = 0.001 + (index % 7) * 0.0005
            for _ in range(500):
                yield sim.timeout(delay)

        for index in range(16):
            sim.process(ticker(index))
        sim.run()
        return 16 * 500

    return batch


def kernel_spawns() -> Batch:
    def child() -> Generator:
        return 1
        yield  # pragma: no cover - makes this a generator

    def batch() -> int:
        sim = Simulator(seed=1)

        def parent() -> Generator:
            for _ in range(2000):
                yield sim.process(child())

        sim.process(parent())
        sim.run()
        return 2000

    return batch


def kernel_cancels() -> Batch:
    sim = Simulator(seed=1)
    # a standing agenda, as a loaded simulation has: cancel must find
    # its event among other pending timestamps
    for index in range(256):
        sim.timeout(1000.0 + index)

    def batch() -> int:
        for _ in range(500):
            if not sim.cancel(sim.timeout(1.0)):
                raise RuntimeError("cancel did not find a pending timeout")
        return 500

    return batch


# -- net -----------------------------------------------------------------------


def _echo_batch(retry=None, admission_limit=None) -> Batch:
    sim = Simulator(seed=1)
    clients = [f"c{i}" for i in range(4)]
    net = Network(sim, Topology.star("server", clients, latency=0.004,
                                     bandwidth=12.5e6))
    net.add_node("server", cores=2)
    for site in clients:
        net.add_node(site, cores=2)
    EchoService(net, "server", demand=0.0005).admission_limit = admission_limit
    per_client = 100

    def client(index: int, tally: list) -> Generator:
        site = clients[index % len(clients)]
        for _ in range(per_client):
            try:
                yield from net.call(site, "server", "echo", "echo",
                                    payload="ping", retry=retry)
            except Overloaded:
                tally[1] += 1
            else:
                tally[0] += 1

    def batch() -> int:
        tally = [0, 0]
        procs = [sim.process(client(i, tally)) for i in range(8)]
        sim.run(until=sim.all_of(procs))
        expected = 1 if admission_limit is not None else 0
        if tally[expected] != 8 * per_client:
            raise RuntimeError(f"echo probe outcomes {tally}")
        return 8 * per_client

    return batch


def net_size_estimates() -> Batch:
    xml = TYPE_XML.format(name="OpenType03", domain="e2e")
    wire = {"xml": xml, "site": "agrid01", "type": "OpenType03",
            "name": "opentype03-bin",
            "epr": {"address": "agrid01/adr", "service": "adr",
                    "key": "agrid01:opentype03-bin", "lut": 12.5}}
    shapes = (
        {"type": "OpenType03", "auto_deploy": False},
        {"key": "agrid01:opentype03-bin", "demand": 0.01},
        [wire],
        {"key": "agrid01:opentype03-bin", "exit_code": 0, "duration": 0.0123},
    )

    def batch() -> int:
        for _ in range(500):
            for shape in shapes:
                estimate_size(shape)
        return 500 * len(shapes)

    return batch


def net_routes() -> Batch:
    sites = [f"s{i:02d}" for i in range(64)]

    def batch() -> int:
        # a fresh graph per batch: the first query of a pair pays the
        # shortest-path search, repeats hit the memo, path_edges never does
        topo = Topology.star(sites[0], sites[1:], latency=0.004, bandwidth=12.5e6)
        calls = 0
        for src in sites[1:9]:
            for dst in sites[9:]:
                topo.path_metrics(src, dst)
                topo.path_metrics(src, dst)
                calls += 2
            topo.path_edges(src, sites[-1])
            topo.rank_sources(src, sites[32:48])
            calls += 2
        return calls

    return batch


# -- wsrf ------------------------------------------------------------------------


def wsrf_xpath_queries() -> Batch:
    documents = [
        parse_xml(TYPE_XML.format(name=f"LookupType{i:03d}", domain=f"domain{i % 7}"))
        for i in range(100)
    ]

    def batch() -> int:
        for i in range(20):
            query = XPathQuery.compile(
                f"//ActivityTypeEntry[@name='LookupType{(i * 7) % 100:03d}']"
            )
            results, _visits = query.evaluate(documents)
            if len(results) != 1:
                raise RuntimeError("xpath probe found the wrong document count")
        return 20

    return batch


def wsrf_xml_parses() -> Batch:
    type_doc = get_application("Wien2k").type_xml
    deploy_file = get_application("Wien2k").deployfile_xml

    def batch() -> int:
        for _ in range(50):
            parse_xml(type_doc)
            parse_xml(deploy_file)
        return 100

    return batch


# -- glare -----------------------------------------------------------------------


class _Record:
    __slots__ = ("last_update_time",)

    def __init__(self, lut: float) -> None:
        self.last_update_time = lut


def _backends():
    key = "activity-type-{:07d}.domain{}".format
    backends = (DictBackend(), StorageConfig.sharded(shards=16).make_backend())
    for backend in backends:
        for index in range(100_000):
            backend.put(key(index, index % 97), _Record(float(index % 1000)))
    return backends, key


def glare_backend_gets(backends, key) -> Batch:
    sample = [key(i * 195, (i * 195) % 97) for i in range(512)]

    def batch() -> int:
        for backend in backends:
            get = backend.get
            for name in sample:
                if get(name) is None:
                    raise RuntimeError("backend probe lost a key")
        return len(backends) * len(sample)

    return batch


def glare_backend_puts(backends) -> Batch:
    fresh = [f"fresh-type-{i:05d}" for i in range(512)]
    record = _Record(1.0)

    def batch() -> int:
        for backend in backends:
            for name in fresh:
                backend.put(name, record)
            for name in fresh:
                backend.delete(name)
        return len(backends) * len(fresh)

    return batch


def glare_local_lookups() -> Batch:
    vo = build_vo(n_sites=1, seed=1, monitors=False, lifecycle=False)
    site = vo.site_names[0]
    names = [f"ProbeType{i:02d}" for i in range(20)]
    for name in names:
        vo.run_process(vo.client_call(
            site, "register_type",
            payload={"xml": TYPE_XML.format(name=name, domain="probe")},
        ))

    def client() -> Generator:
        for i in range(200):
            wire = yield from vo.client_call(site, "lookup_type", names[i % 20])
            if wire is None:
                raise RuntimeError("local lookup probe missed a registered type")

    def batch() -> int:
        vo.run_process(client())
        return 200

    return batch


# -- load ------------------------------------------------------------------------


def load_arrivals() -> Batch:
    process = PoissonProcess(5000.0, name="probe-arrivals")
    fired = [0]

    def fire(t: float, i: int) -> None:
        fired[0] += 1

    def batch() -> int:
        sim = Simulator(seed=1)
        times = process.sample(2.0, 1)
        fired[0] = 0
        CohortInjector(sim, times, fire, tick=0.005).start()
        sim.run()
        if fired[0] != times.size:
            raise RuntimeError("injector probe dropped arrivals")
        return int(times.size)

    return batch


def load_stat_records() -> Batch:
    def batch() -> int:
        stats = StreamStats(window=2.0)
        for i in range(2000):
            stats.ok("resolve", 0.02 + (i % 50) * 0.001, i * 0.002)
            if i % 2:
                stats.shed("resolve", i * 0.002)
        return 3000

    return batch


# -- obs -------------------------------------------------------------------------


def obs_spans() -> Batch:
    sim = Simulator(seed=1)
    tracer = Tracer()
    tracer.bind(sim)

    def batch() -> int:
        for _ in range(1000):
            with tracer.span("rpc:glare-rdm.get_deployments", src="a", dst="b"):
                with tracer.span("serve:glare-rdm.get_deployments", site="b"):
                    pass
        tracer.clear()
        return 2000

    return batch


def obs_counter_incs() -> Batch:
    registry = MetricsRegistry(enabled=True)
    registry.bind(Simulator(seed=1))

    def batch() -> int:
        for i in range(2000):
            registry.counter("rpc.calls", endpoint="glare-rdm.get_deployments",
                             node=f"agrid{i % 8:02d}").inc()
        return 2000

    return batch


# -- orchestrate -------------------------------------------------------------------


def orchestrate_plans() -> Batch:
    planner = Planner()
    specs = [DeploymentSpec(type_name=f"Managed{i}", min_replicas=2, max_replicas=12)
             for i in range(4)]
    sites = tuple(
        SiteObservation(site=f"agrid{i:02d}", utilization=(i * 37 % 100) / 100.0,
                        load=(i * 13 % 40) / 10.0, run_queue=i % 5)
        for i in range(64)
    )
    observed = Observed(
        sites=sites,
        placements={spec.type_name: tuple(s.site for s in sites[i::16])
                    for i, spec in enumerate(specs)},
    )

    def batch() -> int:
        for _ in range(10):
            planner.plan(specs, observed)
        return 10

    return batch


def build_probes() -> Dict[str, Batch]:
    """Every probe's batch, keyed by metric name (calls per host second)."""
    backends, key = _backends()
    return {
        "simkernel.events_per_s": kernel_events(),
        "simkernel.spawns_per_s": kernel_spawns(),
        "simkernel.cancels_per_s": kernel_cancels(),
        "net.bare_rpcs_per_s": _echo_batch(),
        "net.deadline_rpcs_per_s": _echo_batch(retry=RetryPolicy.single(5.0)),
        # limit 0: the service is at its admission limit for every arrival
        "net.shed_rpcs_per_s": _echo_batch(admission_limit=0),
        "net.size_estimates_per_s": net_size_estimates(),
        "net.routes_per_s": net_routes(),
        "wsrf.xpath_queries_per_s": wsrf_xpath_queries(),
        "wsrf.xml_parses_per_s": wsrf_xml_parses(),
        "glare.backend_gets_per_s": glare_backend_gets(backends, key),
        "glare.backend_puts_per_s": glare_backend_puts(backends),
        "glare.local_lookups_per_s": glare_local_lookups(),
        "load.arrivals_per_s": load_arrivals(),
        "load.stat_records_per_s": load_stat_records(),
        "obs.spans_per_s": obs_spans(),
        "obs.counter_incs_per_s": obs_counter_incs(),
        "orchestrate.plans_per_s": orchestrate_plans(),
    }


def run_probes(budget: float, speed_now: Callable[[], float]) -> Dict[str, float]:
    """Run every probe, splitting ``budget`` host seconds evenly.

    ``speed_now`` is sampled between probes; each rate is divided by the
    mean speed index around it, i.e. reported at reference machine speed.
    """
    batches = build_probes()
    share = budget / len(batches)
    rates = {}
    speed = speed_now()
    for name, batch in batches.items():
        rate = measure(batch, share)
        speed, before = speed_now(), speed
        rates[name] = rate / ((before + speed) / 2.0)
    return rates
