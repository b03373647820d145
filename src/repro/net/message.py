"""RPC message and response envelopes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.trace import TraceContext

_MESSAGE_IDS = itertools.count(1)

#: memoized ``len(repr(s))`` for string payload components.  Wire-form
#: caching hands the same XML string objects to many messages; this
#: avoids re-escaping kilobytes of XML per envelope while producing
#: byte-identical size estimates.  Bounded: cleared wholesale at the
#: limit rather than tracking LRU order.
_STR_REPR_LEN: dict = {}
_STR_REPR_LEN_LIMIT = 1024


class WireDict(dict):
    """A resource wire plus denormalized metadata, sized as canonical XML.

    The resolution path repeatedly needs just the ``site``/``name`` of
    a candidate wire; carrying them alongside the XML saves a full
    parse per consultation.  The metadata duplicates attributes already
    inside the XML document, so the simulated message size — derived
    from ``repr`` by :func:`estimate_size` — must not grow: ``repr``
    and :func:`_repr_len` cover only the canonical ``{"xml", "epr"}``
    body, byte-identical to the plain dict this type replaces.
    """

    _CANONICAL = ("xml", "epr")
    #: what each canonical item adds to the repr around its value:
    #: the quoted key, ``": "`` and ``", "``
    _ITEM_OVERHEAD = tuple((key, len(repr(key)) + 4) for key in _CANONICAL)

    def __repr__(self) -> str:
        return repr({key: self[key] for key in self._CANONICAL if key in self})


def _repr_len(payload: Any) -> int:
    """Exact ``len(repr(payload))`` computed compositionally.

    For the plain ``dict``/``list``/``str`` payload shapes the wire
    format uses (and :class:`WireDict`, over its canonical body), the
    repr length decomposes into the members' repr lengths plus fixed
    punctuation, so big cached strings need to be measured only once.
    Anything else falls back to ``repr`` itself, keeping the result
    exact for every payload.
    """
    kind = type(payload)
    if kind is str:
        length = _STR_REPR_LEN.get(payload)
        if length is None:
            length = len(repr(payload))
            if len(_STR_REPR_LEN) >= _STR_REPR_LEN_LIMIT:
                _STR_REPR_LEN.clear()
            _STR_REPR_LEN[payload] = length
        return length
    if kind is WireDict:
        # the canonical body only: the XML through the string memo
        # above, the small EPR dict through one repr (recursing into
        # its four short fields costs more calls than it saves)
        body = 0
        for key, overhead in WireDict._ITEM_OVERHEAD:
            if key in payload:
                value = payload[key]
                body += overhead + (
                    _repr_len(value) if type(value) is str else len(repr(value)))
        return body or 2
    # "{k: v, k: v}" / "[v, v]": every member brings its ", " and the
    # two brackets stand in for the last one's, so an empty container
    # is the only special case.  Plain loops: a generator expression
    # costs one more frame resume per member, once per envelope.
    if kind is dict:
        body = 0
        for key, value in payload.items():
            body += _repr_len(key) + _repr_len(value) + 4  # ": " and ", "
        return body or 2  # "{}"
    if kind is list:
        body = 0
        for value in payload:
            body += _repr_len(value) + 2
        return body or 2  # "[]"
    return len(repr(payload))


def estimate_size(payload: Any, floor: int = 256) -> int:
    """Rough serialized size of ``payload`` in bytes.

    Deterministic and cheap: based on the repr length, with a floor for
    envelope/SOAP overhead.  Good enough to drive transmission-time and
    crypto-cost models; callers that care pass explicit sizes.  The
    value always equals ``max(floor, len(repr(payload)))`` — the
    compositional computation (see :func:`_repr_len`) only changes how
    fast that number is produced, never the number itself.
    """
    if payload is None:
        return floor
    return max(floor, _repr_len(payload))


@dataclass
class Message:
    """A request in flight from ``src`` to ``dst``."""

    src: str
    dst: str
    service: str
    method: str
    payload: Any = None
    size: int = 0
    secure: bool = False
    msg_id: int = field(default_factory=lambda: next(_MESSAGE_IDS))
    #: trace-context metadata (the simulated ``traceparent`` header);
    #: set by the transport when tracing is enabled
    trace_ctx: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            self.size = estimate_size(self.payload)


@dataclass
class Response:
    """A handler's reply; ``size`` drives the return transmission time."""

    value: Any = None
    size: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            self.size = estimate_size(self.value)
