"""Network frames and protocol helpers.

A :class:`Frame` is the unit carried by links: either a single packet (all
client requests fit one MTU — the paper notes latency-critical requests are
short) or a multi-segment message (most responses exceed the Ethernet MTU
and are sent as a train of TCP segments; the paper's TxBytesCounter counts
their bytes without inspecting them).

Framing constants follow the paper: the TCP payload of a received packet
starts at byte 66 (14 B Ethernet + 20 B IP + 32 B TCP with options), and
ReqMonitor inspects the first bytes of that payload against programmable
templates such as ``GET``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

#: Ethernet maximum transmission unit (bytes of L3 payload).
MTU = 1500
#: Header bytes before the TCP payload (Ethernet+IP+TCP, paper Section 4.1).
HEADER_BYTES = 66
#: Maximum TCP payload per segment.
MSS = MTU - (HEADER_BYTES - 14)  # IP+TCP headers count against the MTU

_frame_ids = itertools.count(1)


def segments_for(payload_bytes: int) -> int:
    """Number of TCP segments needed for ``payload_bytes`` of payload."""
    if payload_bytes <= 0:
        return 1
    return (payload_bytes + MSS - 1) // MSS


def wire_bytes_for(payload_bytes: int) -> int:
    """Total bytes on the wire for a message, headers included."""
    return payload_bytes + segments_for(payload_bytes) * HEADER_BYTES


def _slotted(cls: type) -> type:
    """``dataclass(slots=True)`` for Python 3.9, which lacks it: the
    dataclass ``cls`` rebuilt with one slot per field and no ``__dict__``,
    as Python 3.10+ builds it."""
    names = tuple(f.name for f in fields(cls))
    body = {
        key: value for key, value in vars(cls).items()
        if key not in names and key not in ("__dict__", "__weakref__")
    }
    body["__slots__"] = names
    return type(cls.__name__, cls.__bases__, body)


@_slotted
@dataclass
class Frame:
    """One unit of link transfer (a packet or a segment train)."""

    src: str
    dst: str
    payload_bytes: int
    kind: str = "data"            # "request" | "response" | "data"
    payload_prefix: bytes = b""   # first bytes of the TCP payload (ReqMonitor)
    req_id: Optional[int] = None
    created_ns: int = 0
    frame_id: int = field(default_factory=lambda: next(_frame_ids))
    #: Sizes derived from ``payload_bytes`` once, at construction: links
    #: and NIC/NCAP counters read them on every hop.
    n_segments: int = field(init=False, repr=False, compare=False)
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        payload = self.payload_bytes
        if payload < 0:
            raise ValueError("payload_bytes must be non-negative")
        n = segments_for(payload)
        self.n_segments = n
        self.wire_bytes = payload + n * HEADER_BYTES

    @property
    def is_single_packet(self) -> bool:
        return self.n_segments == 1


#: One ``payload_prefix`` object per distinct request prefix, shared by
#: every request frame that starts with it (``get key:`` for every
#: Memcached get).  Like ``sys.intern``, an entry is a pure function of
#: its key, so sharing the table cannot change what any caller reads.
_PREFIXES: Dict[bytes, bytes] = {}


def _prefix(line: bytes) -> bytes:
    prefix = line[:8]
    return _PREFIXES.setdefault(prefix, prefix)


def make_http_request(
    src: str,
    dst: str,
    method: str = "GET",
    url: str = "/index.html",
    req_id: Optional[int] = None,
    created_ns: int = 0,
) -> Frame:
    """An HTTP request packet (e.g. ``GET /index.html HTTP/1.1``)."""
    line = f"{method} {url} HTTP/1.1\r\nHost: {dst}\r\n\r\n".encode("ascii")
    return Frame(
        src=src,
        dst=dst,
        payload_bytes=len(line),
        kind="request",
        payload_prefix=_prefix(line),
        req_id=req_id,
        created_ns=created_ns,
    )


def make_memcached_request(
    src: str,
    dst: str,
    command: str = "get",
    key: str = "key:0",
    req_id: Optional[int] = None,
    created_ns: int = 0,
) -> Frame:
    """A Memcached ASCII-protocol request packet (e.g. ``get key:0``)."""
    line = f"{command} {key}\r\n".encode("ascii")
    return Frame(
        src=src,
        dst=dst,
        payload_bytes=len(line),
        kind="request",
        payload_prefix=_prefix(line),
        req_id=req_id,
        created_ns=created_ns,
    )


def make_response(
    src: str,
    dst: str,
    payload_bytes: int,
    req_id: Optional[int] = None,
    created_ns: int = 0,
) -> Frame:
    """A response message of ``payload_bytes`` (possibly multi-segment)."""
    return Frame(
        src=src,
        dst=dst,
        payload_bytes=payload_bytes,
        kind="response",
        payload_prefix=b"HTTP/1.1",
        req_id=req_id,
        created_ns=created_ns,
    )
