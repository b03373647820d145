"""RPC message and response envelopes."""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.obs.trace import TraceContext

_MESSAGE_IDS = itertools.count(1)

#: memoized ``len(repr(s))`` for string payload components.  Wire-form
#: caching hands the same XML string objects to many messages; this
#: avoids re-escaping kilobytes of XML per envelope while producing
#: byte-identical size estimates.  Bounded: cleared wholesale at the
#: limit rather than tracking LRU order.  The limit is also that of
#: ``wsrf.xmldoc``'s shared parses: one 64-site resolve pass touches
#: ~1,500 distinct documents, and a memo smaller than its working set
#: only thrashes.
_STR_REPR_LEN: dict = {}
_STR_REPR_LEN_LIMIT = 4096


class WireDict(dict):
    """A resource wire plus denormalized metadata, sized as canonical XML.

    The resolution path repeatedly needs just the ``site``/``name`` of
    a candidate wire; carrying them alongside the XML saves a full
    parse per consultation.  The metadata duplicates attributes already
    inside the XML document, so the simulated message size — derived
    from ``repr`` by :func:`estimate_size` — must not grow: ``repr``
    and :func:`_repr_len` cover only the canonical ``{"xml", "epr"}``
    body, byte-identical to the plain dict this type replaces.

    A wire is never changed after it is built, so it is sized once:
    ``repr_len`` holds that body's length from the first sizing on,
    and every hop that forwards the wire reads it back.
    """

    __slots__ = ("repr_len",)

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
        try:
            return payload.repr_len
        except AttributeError:  # the wire's first sizing
            pass
        # the canonical body only: the XML through the string memo
        # above, the small EPR dict through one repr (recursing into
        # its four short fields costs more calls than it saves)
        body = 0
        for key, overhead in WireDict._ITEM_OVERHEAD:
            if key in payload:
                value = payload[key]
                body += overhead + (
                    _repr_len(value) if type(value) is str else len(repr(value)))
        payload.repr_len = body = body or 2
        return body
    # "{k: v, k: v}" / "[v, v]": every member brings its ", " and the
    # two brackets stand in for the last one's, so an empty container
    # is the only special case.  Plain loops: a generator expression
    # costs one more frame resume per member, once per envelope.  A
    # dict member that is no container is sized in the loop, without a
    # call: a memoized string by its memo entry, anything else by its
    # repr (a key is hashable, so never a container).
    if kind is dict:
        body = 0
        for key, value in payload.items():
            body += 4 + ((_STR_REPR_LEN.get(key) or _repr_len(key))  # ": ", ", "
                         if type(key) is str else len(repr(key)))
            kind = type(value)
            if kind is str:
                body += _STR_REPR_LEN.get(value) or _repr_len(value)
            elif kind is dict or kind is list or kind is WireDict:
                body += _repr_len(value)
            else:
                body += len(repr(value))
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


class Message:
    """A request from ``src`` to ``dst``, sized like a :class:`Response`
    unless ``size`` is given; ``trace_ctx`` is its ``traceparent`` header."""

    __slots__ = ("src", "dst", "service", "method", "payload", "size",
                 "secure", "msg_id", "trace_ctx")

    def __init__(self, src: str, dst: str, service: str, method: str,
                 payload: Any = None, size: int = 0, secure: bool = False,
                 trace_ctx: Optional[TraceContext] = None) -> None:
        self.src = src
        self.dst = dst
        self.service = service
        self.method = method
        self.payload = payload
        self.size = size if size > 0 else estimate_size(payload)
        self.secure = secure
        self.msg_id = next(_MESSAGE_IDS)
        self.trace_ctx = trace_ctx


class Response:
    """A handler's reply; ``size`` drives the return transmission time."""

    __slots__ = ("value", "size")

    def __init__(self, value: Any = None, size: int = 0) -> None:
        self.value = value
        self.size = size if size > 0 else estimate_size(value)
