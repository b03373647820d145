"""Simulated wide-area network and RPC transport.

This package stands in for the Austrian Grid's physical network and the
GT4 web-service transport stack.  It provides:

* :class:`~repro.net.topology.Topology` — sites and links with latency
  and bandwidth, kept as an adjacency dict (equal-latency paths tie as
  networkx's bidirectional Dijkstra ties them);
* :class:`~repro.net.network.Network` — node runtimes (CPU + registered
  services + online flag) plus the RPC ``call`` primitive used by every
  Grid service in the reproduction;
* :class:`~repro.net.service.Service` — base class for simulated
  services (registries, index services, job managers, ...);
* :class:`~repro.net.transport.SecurityPolicy` — transport-level
  security (http vs https) as per-message handshake latency and
  cryptographic CPU demand, reproducing the ~50 % throughput drop the
  paper reports with TLS enabled;
* :mod:`~repro.net.interceptors` — the RPC error types and the shared
  :class:`RetryPolicy` used by every call site that retries remote
  operations (a per-attempt deadline is ``call``'s ``timeout``, a
  number).  Tracing, metrics and SLIs are not a pipeline of their own:
  the network's one transport stage takes them when the VO observes.
"""

from repro.net.interceptors import (
    Overloaded,
    RemoteError,
    RetryPolicy,
    RpcTimeout,
)
from repro.net.message import Message, Response
from repro.net.network import Network, NodeRuntime, ServiceNotFound
from repro.net.service import Service
from repro.net.topology import Link, Topology
from repro.net.transport import SecurityPolicy

__all__ = [
    "Link",
    "Message",
    "Network",
    "NodeRuntime",
    "Overloaded",
    "RemoteError",
    "Response",
    "RetryPolicy",
    "RpcTimeout",
    "SecurityPolicy",
    "Service",
    "ServiceNotFound",
    "Topology",
]
