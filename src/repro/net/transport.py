"""Transport-level security cost model (http vs https).

The paper's Fig. 10 shows throughput dropping by roughly half for both
the GLARE registry and the WS-MDS index once transport-level security
is enabled.  We model https as:

* one extra round-trip of handshake latency per call (abbreviated
  session resumption, not a full TLS negotiation), and
* additional cryptographic CPU demand on the *server* proportional to
  the bytes moved plus a fixed per-record cost.

With the default calibration the crypto demand roughly equals the
registries' base request-processing demand, so saturation throughput
halves — the drop emerges from server saturation rather than from a
hard-coded factor.
"""

from __future__ import annotations

from dataclasses import dataclass

# Trace-context propagation: every RPC envelope can carry the caller's
# span identity (the simulated analogue of a W3C ``traceparent``
# header).  The transport stage of :class:`Network` injects it; a
# handler that hands work to another simulation process can parent
# that work's spans on it.  Re-exported here because this module *is*
# the transport-metadata layer.
from repro.obs.trace import TraceContext

__all__ = ["SecurityPolicy", "TraceContext"]


@dataclass(frozen=True)
class SecurityPolicy:
    """Parameters of the https cost model.

    Attributes
    ----------
    enabled:
        Master switch; when false all costs are zero.
    handshake_rtts:
        Extra round-trips added to every secure call.
    cpu_fixed:
        Fixed per-call cryptographic CPU demand at the server (seconds).
    cpu_per_kb:
        Per-kilobyte cryptographic CPU demand at the server (seconds).
    client_cpu_factor:
        Fraction of the server crypto demand also spent at the client.
    """

    enabled: bool = False
    handshake_rtts: float = 1.0
    cpu_fixed: float = 0.0035
    cpu_per_kb: float = 0.0004
    client_cpu_factor: float = 0.5

    def server_cpu_demand(self, total_bytes: int) -> float:
        """Crypto CPU-seconds burned at the server for one call."""
        if not self.enabled:
            return 0.0
        return self.cpu_fixed + self.cpu_per_kb * (total_bytes / 1024.0)

    def client_cpu_demand(self, total_bytes: int) -> float:
        """Crypto CPU-seconds burned at the client for one call."""
        if not self.enabled:
            return 0.0
        return self.client_cpu_factor * self.server_cpu_demand(total_bytes)

    def handshake_latency(self, rtt: float) -> float:
        """Extra latency added in front of a secure call."""
        if not self.enabled:
            return 0.0
        return self.handshake_rtts * rtt

    @classmethod
    def http(cls) -> "SecurityPolicy":
        """Plain transport — no security costs."""
        return cls(enabled=False)

    @classmethod
    def https(cls, **overrides) -> "SecurityPolicy":
        """Secure transport with default calibration."""
        return cls(enabled=True, **overrides)
