"""The GridFTP endpoint service and transfer helpers.

Each site runs one :class:`GridFtpService` bound to that site's
filesystem.  Transfers are modelled as: per-transfer control-channel
setup (GSI handshake + connection establishment), then streaming at the
topology's bottleneck bandwidth — the RPC layer charges the
transmission time because the file's size is the response size.

URLs: deploy-files reference archives by URL (paper Fig. 9 downloads
``povlinux-3.6.tgz`` from www.povray.org).  A :class:`UrlCatalog` maps
URLs onto (hosting site, path) pairs, so "the internet" is itself a set
of simulated hosts — typically a well-connected ``origin`` node.

Replica-aware mode (:class:`~repro.glare.provisioning.ProvisioningConfig`,
off by default): every verified ``fetch_url`` registers its destination
as a replica in the catalog, later fetches pull from the nearest live
location (topology latency/bandwidth, least-loaded tie-break) instead
of always hitting origin, and a per-site singleflight collapses
concurrent fetches of the same URL into one wide-area transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from repro.net.message import Message, Response
from repro.net.service import Service
from repro.simkernel.errors import OfflineError
from repro.simkernel.primitives import SingleFlight
from repro.site.filesystem import Filesystem, FilesystemError


class TransferError(Exception):
    """Missing source files, unknown URLs, checksum mismatches — or,
    flagged :attr:`transient`, a data-channel failure worth retrying."""

    def __init__(self, message: str, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


@dataclass
class TransferRecord:
    """Bookkeeping for one completed transfer."""

    source: str
    destination: str
    path: str
    size: int
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class UrlCatalog:
    """Resolution table: URL -> (hosting site, path on that site).

    ``contents`` optionally carries the *textual* content of small
    published documents (deploy-files), so a consumer that has fetched
    the file can also read it — the simulated filesystem stores sizes,
    not bytes.
    """

    entries: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    contents: Dict[str, str] = field(default_factory=dict)
    #: URL -> additional (site, path) copies, in registration order
    replicas: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    #: site -> transfers it is currently sourcing (replica load tie-break)
    serving: Dict[str, int] = field(default_factory=dict)

    def publish(self, url: str, site: str, path: str, content: Optional[str] = None) -> None:
        """Make ``url`` resolvable to a file hosted on ``site``."""
        self.entries[url] = (site, path)
        if content is not None:
            self.contents[url] = content

    def resolve(self, url: str) -> Tuple[str, str]:
        try:
            return self.entries[url]
        except KeyError:
            raise TransferError(f"unresolvable URL: {url}")

    def add_replica(self, url: str, site: str, path: str) -> None:
        """Record a verified copy of ``url`` living at ``site:path``."""
        if url not in self.entries or self.entries[url] == (site, path):
            return
        locations = self.replicas.setdefault(url, [])
        if (site, path) not in locations:
            locations.append((site, path))

    def discard_replica(self, url: str, site: str) -> None:
        """Forget every replica of ``url`` hosted on ``site``."""
        self._drop_replicas(url, lambda loc: loc[0] == site)

    def discard_replicas_under(self, site: str, directory: str) -> None:
        """Forget every replica ``site`` kept below ``directory`` (now deleted)."""
        prefix = directory.rstrip("/") + "/"
        for url in list(self.replicas):
            self._drop_replicas(
                url, lambda loc: loc[0] == site and loc[1].startswith(prefix)
            )

    def _drop_replicas(self, url: str, gone) -> None:
        locations = self.replicas.get(url)
        if locations is not None:
            locations[:] = [loc for loc in locations if not gone(loc)]
            if not locations:
                del self.replicas[url]

    def locations(self, url: str) -> List[Tuple[str, str]]:
        """Every known copy of ``url``: origin first, then replicas."""
        origin = self.resolve(url)
        return [origin] + [loc for loc in self.replicas.get(url, ()) if loc != origin]

    def content(self, url: str) -> str:
        try:
            return self.contents[url]
        except KeyError:
            raise TransferError(f"no readable content published for URL: {url}")


class GridFtpService(Service):
    """Per-site GridFTP endpoint.

    Parameters
    ----------
    fs:
        The site's filesystem (files appear/disappear here).
    setup_cost:
        Control-channel establishment time per transfer, seconds.
    url_catalog:
        Shared URL resolution table (one per VO).
    replica_aware:
        ``fetch_url`` registers verified downloads as catalog replicas
        and pulls from the nearest live copy instead of always hitting
        origin, and concurrent ``fetch_url`` calls for the same URL on
        this site share one wide-area transfer (followers take a local
        copy once the leader's download lands).  Off by default
        (baseline behaviour is byte-identical).
    """

    SERVICE_NAME = "gridftp"

    def __init__(
        self,
        network,
        node_name,
        fs: Filesystem,
        setup_cost: float = 0.3,
        url_catalog: Optional[UrlCatalog] = None,
        replica_aware: bool = False,
    ) -> None:
        super().__init__(network, node_name)
        self.fs = fs
        self.setup_cost = setup_cost
        self.url_catalog = url_catalog or UrlCatalog()
        self.replica_aware = replica_aware
        self.transfers: List[TransferRecord] = []
        self.bytes_moved = 0
        self.transient_failures = 0
        #: re-attempts after a transient failure (charged by the
        #: handlers' retry loop; distinct from the failures themselves)
        self.transfer_retries = 0
        #: fetch_url calls served from a non-origin location
        self.replica_hits = 0
        #: fetch_url calls that piggybacked on an in-flight download
        self.url_singleflight_joined = 0
        #: in-flight fetch_url downloads by URL
        self._url_flights = SingleFlight(self.sim)

    def invariants(self) -> Iterator[Tuple[str, str]]:
        for url, locations in self.url_catalog.replicas.items():
            for site, path in locations:
                if site == self.node_name and not self.fs.exists(path):
                    yield "replicas-on-disk", f"replica of {url} at {path} is gone"

    # -- remote operations ----------------------------------------------------

    def op_get(self, message: Message) -> Generator:
        """Serve a file: response sized to the file so the wire time is real."""
        path = message.payload
        yield from self.compute(0.001)
        try:
            entry = self.fs.get_file(path)
        except FilesystemError as error:
            raise TransferError(str(error))
        yield self.sim.timeout(self.setup_cost)
        payload = {
            "path": entry.path,
            "size": entry.size,
            "executable": entry.executable,
            "md5sum": entry.md5sum,
        }
        return Response(value=payload, size=max(entry.size, 1))

    def op_stat(self, message: Message) -> Generator:
        """File metadata without moving the bytes."""
        yield from self.compute(0.0005)
        try:
            entry = self.fs.get_file(message.payload)
        except FilesystemError as error:
            raise TransferError(str(error))
        return {"path": entry.path, "size": entry.size, "md5sum": entry.md5sum}

    # -- client-side helpers (sub-generators) -----------------------------------

    def fetch(
        self,
        src_site: str,
        src_path: str,
        dst_path: str,
        expected_md5: str = "",
    ) -> Generator:
        """Pull ``src_path`` from ``src_site`` into the local filesystem.

        Verifies the md5 checksum when ``expected_md5`` is given, as
        deploy-files do (paper Fig. 9 carries ``md5sum`` attributes).
        """
        obs = self.obs
        if not obs.enabled:
            entry = yield from self._fetch_inner(
                src_site, src_path, dst_path, expected_md5
            )
            return entry
        started = self.sim.now
        with obs.tracer.span(
            "gridftp:fetch", src=src_site, dst=self.node_name, path=src_path
        ) as span:
            entry = yield from self._fetch_inner(
                src_site, src_path, dst_path, expected_md5
            )
            span.set_attr("bytes", entry.size)
            obs.metrics.counter("gridftp.bytes", site=self.node_name).inc(entry.size)
            obs.metrics.histogram("gridftp.transfer").observe(self.sim.now - started)
        return entry

    def _fetch_inner(
        self,
        src_site: str,
        src_path: str,
        dst_path: str,
        expected_md5: str = "",
    ) -> Generator:
        """The untraced transfer body (see :meth:`fetch`)."""
        start = self.sim.now
        if self.network.faults.transfer_fault(self.node_name, src_path):
            # transient data-channel failure after the setup handshake
            yield self.sim.timeout(self.setup_cost)
            self.transient_failures += 1
            raise TransferError(
                f"transient transfer failure pulling {src_path} from {src_site}",
                transient=True,
            )
        if src_site == self.node_name:
            # Local copy: no network, just the control setup.
            yield self.sim.timeout(self.setup_cost)
            entry = self.fs.get_file(src_path)
            meta = {
                "path": entry.path,
                "size": entry.size,
                "executable": entry.executable,
                "md5sum": entry.md5sum,
            }
        else:
            meta = yield from self.call(src_site, GridFtpService.SERVICE_NAME, "get",
                                        payload=src_path)
        if expected_md5 and meta["md5sum"] and meta["md5sum"] != expected_md5:
            raise TransferError(
                f"md5 mismatch for {src_path}: expected {expected_md5}, "
                f"got {meta['md5sum']}"
            )
        entry = self.fs.put_file(
            dst_path,
            size=meta["size"],
            executable=meta.get("executable", False),
            md5sum=meta.get("md5sum", ""),
            source_url=f"gsiftp://{src_site}{src_path}",
            created_at=self.sim.now,
        )
        record = TransferRecord(
            source=src_site,
            destination=self.node_name,
            path=dst_path,
            size=meta["size"],
            started_at=start,
            finished_at=self.sim.now,
        )
        self.transfers.append(record)
        self.bytes_moved += meta["size"]
        return entry

    def fetch_url(self, url: str, dst_path: str, expected_md5: str = "") -> Generator:
        """Resolve ``url`` through the catalog and fetch it locally.

        With :attr:`replica_aware` on, the source is the nearest live
        copy rather than always the origin host, and the first fetch of
        a URL on this site leads: concurrent fetches of the same URL
        wait for it and then copy the leader's file locally (setup cost
        only, no wide-area transfer).  A failed leader is not shared —
        each follower falls back to its own download.
        """
        if not self.replica_aware:
            site, path = self.url_catalog.resolve(url)
            entry = yield from self.fetch(site, path, dst_path, expected_md5=expected_md5)
            entry.source_url = url
            return entry
        led, ok, entry = yield from self._url_flights.run(
            url, lambda: self._fetch_url_once(url, dst_path, expected_md5)
        )
        if led:
            return entry
        self.url_singleflight_joined += 1
        if not ok:
            entry = yield from self._fetch_url_once(url, dst_path, expected_md5)
            return entry
        entry = yield from self.fetch(
            self.node_name, entry.path, dst_path, expected_md5=expected_md5
        )
        entry.source_url = url
        return entry

    def _fetch_url_once(self, url: str, dst_path: str, expected_md5: str = "") -> Generator:
        """One replica-aware URL download: nearest live copy, origin
        as the fallback, and the destination registered as a replica."""
        catalog = self.url_catalog
        origin = catalog.resolve(url)
        # ``serving`` counts the site being pulled from; a fallback moves it to origin
        for site, path in (self._select_source(url, origin), origin):
            catalog.serving[site] = catalog.serving.get(site, 0) + 1
            try:
                entry = yield from self.fetch(site, path, dst_path, expected_md5=expected_md5)
                break
            except (TransferError, OfflineError):
                if (site, path) == origin:
                    raise
                # a stale replica (deleted file, offline host, bad
                # checksum) must never lose the fetch: drop it and pull
                # from origin
                catalog.discard_replica(url, site)
            finally:
                catalog.serving[site] -= 1
                if catalog.serving[site] <= 0:
                    del catalog.serving[site]
        entry.source_url = url
        # the download verified (md5-checked when the caller supplied a
        # digest): this site is now a replica for later fetches
        catalog.add_replica(url, self.node_name, dst_path)
        return entry

    def _select_source(self, url: str, origin: Tuple[str, str]) -> Tuple[str, str]:
        """Nearest live copy of ``url``: topology rank, load tie-break.
        One pass; liveness is asked only of a candidate that would lead."""
        replicas = self.url_catalog.replicas.get(url)
        if not replicas:
            return origin
        me, network, serving = self.node_name, self.network, self.url_catalog.serving
        routes = network.topology.routes
        best = chosen = None
        for site, path in (origin, *replicas):
            try:
                latency, bandwidth, _ = routes[site, me]
                rank = (latency, -bandwidth, serving.get(site, 0), site)
                # a site listed again ranks the same, so its first entry holds
                if (best is None or rank < best) and (
                        site == me or network.is_online(site)):
                    best, chosen = rank, (site, path)
            except ValueError:
                pass  # unreachable, or not a node of this network
        if chosen is None:
            return origin
        if chosen != origin:
            self.replica_hits += 1
        return chosen


def install_gridftp(network, sites, url_catalog: Optional[UrlCatalog] = None,
                    setup_cost: float = 0.3) -> Dict[str, GridFtpService]:
    """Deploy a GridFTP endpoint on each :class:`GridSite` in ``sites``."""
    catalog = url_catalog or UrlCatalog()
    services = {}
    for site in sites:
        services[site.name] = GridFtpService(
            network, site.name, fs=site.fs, setup_cost=setup_cost, url_catalog=catalog
        )
    return services
