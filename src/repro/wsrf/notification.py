"""Topic-based WS-Notification: subscriptions, sinks, delivery load.

"WS-Resource ... provides mechanisms including service lifecycle
management, event registration and notification" (paper §3.1).  The
Fig. 13 experiment drives the Activity Type Registry with up to 210
*notification sinks* at rates down to one notification per second and
plots the resulting 1-minute load average on the registry host.

The :class:`NotificationBroker` lives on the publisher's node.  Every
published notification costs marshalling CPU on the publisher *per
sink* and one network delivery per sink — which is exactly why the
load average climbs linearly with sink count and notification rate in
the reproduction, matching the paper's observation that "load average
is proportional to the notification rate".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.net.interceptors import TRANSIENT_ERRORS, RemoteError
from repro.net.message import Message
from repro.net.service import Service
from repro.simkernel.errors import OfflineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network

_SUBSCRIPTION_IDS = itertools.count(1)


@dataclass
class Subscription:
    """One sink's registration on a topic.

    ``expires_at`` is an absolute simulation time (None = unbounded):
    WS-Notification subscriptions are WS-Resources with scheduled
    termination, so untended sinks stop costing the publisher.
    """

    topic: str
    sink_site: str
    sink_service: str
    subscription_id: int
    active: bool = True
    expires_at: Optional[float] = None

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


class NotificationSink(Service):
    """A remote listener that receives and counts notifications."""

    SERVICE_NAME = "notification-sink"

    def __init__(self, network: "Network", node_name: str, name: Optional[str] = None,
                 process_demand: float = 0.0005) -> None:
        super().__init__(network, node_name, name=name)
        self.process_demand = process_demand
        self.received: List[Any] = []

    def op_notify(self, message: Message) -> Generator:
        if self.process_demand > 0:
            yield from self.compute(self.process_demand)
        self.received.append(message.payload)
        return len(self.received)


class NotificationBroker:
    """Publisher-side subscription table and delivery engine.

    Parameters
    ----------
    publish_demand:
        CPU-seconds burned on the publisher host per delivered
        notification (serialization + connection handling); this is the
        term that drives the Fig. 13 load-average curve.
    """

    def __init__(
        self,
        network: "Network",
        node_name: str,
        publish_demand: float = 0.004,
    ) -> None:
        self.network = network
        self.node_name = node_name
        self.publish_demand = publish_demand
        self._topics: Dict[str, List[Subscription]] = {}
        self.published = 0
        self.delivered = 0
        self.failed_deliveries = 0

    @property
    def sim(self):
        return self.network.sim

    def subscribe(self, topic: str, sink_site: str, sink_service: str,
                  ttl: Optional[float] = None) -> Subscription:
        """Register a sink on ``topic``; returns the subscription handle.

        ``ttl`` bounds the subscription's lifetime in seconds; expired
        subscriptions are dropped lazily at publish time.
        """
        sub = Subscription(
            topic=topic,
            sink_site=sink_site,
            sink_service=sink_service,
            subscription_id=next(_SUBSCRIPTION_IDS),
            expires_at=None if ttl is None else self.sim.now + ttl,
        )
        self._topics.setdefault(topic, []).append(sub)
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deactivate and drop a subscription."""
        subscription.active = False
        subs = self._topics.get(subscription.topic, [])
        if subscription in subs:
            subs.remove(subscription)

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        """Active subscriptions on one topic (or on all topics)."""
        if topic is not None:
            return len(self._topics.get(topic, []))
        return sum(len(v) for v in self._topics.values())

    def publish(self, topic: str, payload: Any) -> int:
        """Fan a notification out to every sink on ``topic``.

        Deliveries run as detached processes so the publisher never
        blocks; each delivery charges ``publish_demand`` to the
        publisher host before the network send.  Returns the number of
        deliveries started.
        """
        now = self.sim.now
        subs = self._topics.get(topic, [])
        expired = [s for s in subs if s.expired(now)]
        for sub in expired:
            self.unsubscribe(sub)
        subs = list(self._topics.get(topic, []))
        self.published += 1
        for sub in subs:
            self.sim.process(
                self._deliver(sub, payload), name=f"notify:{topic}->{sub.sink_site}"
            )
        return len(subs)

    def _deliver(self, sub: Subscription, payload: Any) -> Generator:
        node = self.network.node(self.node_name)
        try:
            if self.publish_demand > 0:
                yield from node.cpu.execute(self.publish_demand)
            if not sub.active:
                return
            yield from self.network.call(
                self.node_name, sub.sink_site, sub.sink_service, "notify", payload=payload
            )
            self.delivered += 1
        except OfflineError:
            self.failed_deliveries += 1
            self.unsubscribe(sub)
        except TRANSIENT_ERRORS + (RemoteError,):
            self.failed_deliveries += 1
