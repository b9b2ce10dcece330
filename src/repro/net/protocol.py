"""Framed binary wire protocol (plus HTTP/JSON fallback) for distance serving.

The serving stack built by :mod:`repro.serve` runs inside one asyncio
event loop; :mod:`repro.net` puts real sockets in front of it.  This
module is the shared wire layer: workers, the front tier, and clients
all speak exactly these bytes, so the framing rules live in one place.

**Binary frames.**  Every message is one frame::

    +-------+---------+------+----------+--------+---------+---------+
    | magic | version | type | flags    | req id | length  | payload |
    | 4 B   | 1 B     | 1 B  | 2 B      | 4 B    | 4 B     | ...     |
    +-------+---------+------+----------+--------+---------+---------+

Header fields are network byte order; payload arrays are little-endian
numpy dtypes (``<i4`` node ids, ``<f8`` distances) so both ends can use
zero-copy ``np.frombuffer``.  ``req id`` lets a client pipeline many
requests over one connection and match responses out of order.  A
request carries a stretch budget, an optional artifact hint (the front
tier pins the routed artifact so every worker answers from the same
table), and packed ``(u, v)`` pair arrays; a response carries the
``float64`` distances; an error frame carries a typed code plus a
message.  Malformed input never crashes a server: bad magic, an
unsupported version byte, an oversized length prefix, or a truncated
frame raise :class:`ProtocolError` with the matching error code, which
servers answer (or close on) without ever letting the exception reach
the event loop.

**HTTP fallback.**  The first four bytes of a connection decide the
dialect: ``RNET`` means binary, anything else is treated as HTTP/1.x on
the same port — ``GET /healthz``, ``GET /metricsz``, and ``POST /query``
make every worker and the front tier curl-able without a custom client.

Everything here is stdlib + numpy; the net tier adds no dependencies.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import struct
from typing import Dict, Optional, Tuple

import numpy as np

#: First bytes of every binary frame; anything else is HTTP fallback.
MAGIC = b"RNET"
#: The one wire protocol version.  Which optional sections a frame
#: carries is decided by its flags (below), never by the version byte; a
#: reader rejects any other version with ERR_UNSUPPORTED_VERSION.
PROTOCOL_VERSION = 1

#: Bit in the u16 flags field of the header (zero on a plain frame):
#: a trace blob precedes the payload.
FLAG_TRACE = 0x0001
#: Bit in the flags field: a float64 deadline budget (seconds the
#: sender is still willing to wait) precedes the payload — and the
#: trace blob, when both flags are set.  The budget is *relative*, not
#: a wall-clock instant, so it survives clock skew between hosts; each
#: receiver re-anchors it against its own monotonic clock on decode.
FLAG_DEADLINE = 0x0002

#: trace_blob_length(u16) — precedes the trace blob on flagged frames.
_TRACE_HEAD = struct.Struct("!H")
#: deadline_budget_seconds(f64) — precedes the payload (and trace blob)
#: on FLAG_DEADLINE frames.
_DEADLINE_HEAD = struct.Struct("!d")

#: magic(4) version(1) type(1) flags(2) req_id(4) payload_length(4).
HEADER = struct.Struct("!4sBBHII")
#: multiplicative(f64) additive(f64) hint_len(u16) pair_count(u32).
_REQUEST_HEAD = struct.Struct("!ddHI")
#: distance_count(u32).
_RESPONSE_HEAD = struct.Struct("!I")
#: error_code(u16) message_len(u16).
_ERROR_HEAD = struct.Struct("!HH")

#: Hard ceiling on a frame payload; an advertised length beyond this is
#: malformed by definition (nobody sends 16 MiB of query pairs — and a
#: corrupt length prefix must not make a server try to buffer 4 GB).
MAX_PAYLOAD = 16 * 2**20
#: Ceiling on a buffered HTTP request (start line + headers + body).
MAX_HTTP_REQUEST = 1 * 2**20

# Frame types.
MSG_REQUEST = 1
MSG_RESPONSE = 2
MSG_ERROR = 3
MSG_PING = 4
MSG_PONG = 5

# Typed error codes carried by MSG_ERROR frames.
ERR_BAD_FRAME = 1          # malformed frame or payload
ERR_UNSUPPORTED_VERSION = 2
ERR_ROUTING = 3            # no artifact satisfies the stretch budget
ERR_OVERLOADED = 4         # server shed the request (backpressure)
ERR_BAD_NODES = 5          # node ids out of range / malformed pairs
ERR_INTERNAL = 6
ERR_SHUTTING_DOWN = 7
ERR_DEADLINE_EXCEEDED = 8  # the request's deadline budget ran out
ERR_DATA_INTEGRITY = 9     # quarantined/corrupt shard data backs the answer

ERROR_NAMES = {
    ERR_BAD_FRAME: "bad-frame",
    ERR_UNSUPPORTED_VERSION: "unsupported-version",
    ERR_ROUTING: "routing",
    ERR_OVERLOADED: "overloaded",
    ERR_BAD_NODES: "bad-nodes",
    ERR_INTERNAL: "internal",
    ERR_SHUTTING_DOWN: "shutting-down",
    ERR_DEADLINE_EXCEEDED: "deadline-exceeded",
    ERR_DATA_INTEGRITY: "data-integrity",
}


class ProtocolError(RuntimeError):
    """Malformed or unserviceable wire input, with a typed error code.

    Servers convert these into MSG_ERROR frames (or an HTTP error body);
    clients raise them to callers.  ``req_id`` is the request the error
    answers, when the frame got far enough to carry one.
    """

    def __init__(self, code: int, message: str, req_id: int = 0):
        super().__init__(message)
        self.code = code
        self.req_id = req_id

    @property
    def code_name(self) -> str:
        return ERROR_NAMES.get(self.code, str(self.code))


class NetError(RuntimeError):
    """Transport-level failure after retries (dead worker, timeout).

    Distinct from :class:`ProtocolError`: the wire was fine, the far end
    was not.  The front tier raises it when every failover attempt for a
    sub-batch is exhausted; load generators count it as an error, not a
    shed.
    """


@dataclasses.dataclass(frozen=True)
class Request:
    """One decoded distance request: budget, optional pin, pair arrays."""

    u: np.ndarray  # int32 node ids
    v: np.ndarray  # int32 node ids, same length
    multiplicative: float = math.inf
    additive: float = math.inf
    #: Artifact name to answer from ("" routes by budget).  The front
    #: tier pins its routing decision here so all workers agree.
    artifact: str = ""

    def __len__(self) -> int:
        return len(self.u)


# ----------------------------------------------------------------------
# frame encoding
# ----------------------------------------------------------------------
class Frame(tuple):
    """One decoded frame: unpacks as ``(type, req_id, payload)``.

    A plain-tuple subclass so every ``ftype, req_id, payload = frame``
    site keeps working; the optional trace blob (a FLAG_TRACE frame's
    prefix) rides along as the ``trace`` attribute and the optional
    deadline budget (a FLAG_DEADLINE frame's prefix, in seconds) as
    ``deadline`` — both ``None`` when absent.
    """

    def __new__(cls, ftype: int, req_id: int, payload: bytes,
                trace: Optional[bytes] = None,
                deadline: Optional[float] = None) -> "Frame":
        self = super().__new__(cls, (ftype, req_id, payload))
        self.trace = trace
        self.deadline = deadline
        return self


def encode_frame(ftype: int, req_id: int, payload: bytes = b"",
                 trace: Optional[bytes] = None,
                 deadline: Optional[float] = None) -> bytes:
    """Encode one frame; ``trace``/``deadline`` add flagged sections.

    A plain frame has zero flags and nothing but the payload after the
    header.  A ``deadline`` (remaining budget in seconds — a relative
    duration, never a wall-clock instant) sets FLAG_DEADLINE and
    prepends a float64 budget; a ``trace`` sets FLAG_TRACE and prepends
    a u16 blob length plus the blob, after the budget when both ride
    along.
    """
    flags = 0
    prefix = b""
    if deadline is not None:
        budget = float(deadline)
        if not math.isfinite(budget) or budget < 0.0:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"deadline budget must be finite and non-negative, "
                f"got {budget}", req_id)
        flags |= FLAG_DEADLINE
        prefix += _DEADLINE_HEAD.pack(budget)
    if trace:
        if len(trace) > 0xFFFF:
            raise ProtocolError(
                ERR_BAD_FRAME, f"trace blob of {len(trace)} bytes exceeds "
                f"the u16 length prefix", req_id)
        flags |= FLAG_TRACE
        prefix += _TRACE_HEAD.pack(len(trace)) + trace
    body = prefix + payload if prefix else payload
    if len(body) > MAX_PAYLOAD:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"payload of {len(body)} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD})", req_id)
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, ftype, flags, req_id,
                       len(body)) + body


def pack_request(pairs, multiplicative: float = math.inf,
                 additive: float = math.inf, artifact: str = "") -> bytes:
    """Payload bytes for a MSG_REQUEST frame.

    ``pairs`` is a sequence of ``(u, v)`` tuples or an ``(N, 2)`` array;
    the two node columns are packed as separate contiguous ``<i4``
    arrays so the receiver can ``np.frombuffer`` them without copying.
    """
    arr = np.asarray(pairs, dtype="<i4")
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must be an (N, 2) sequence, "
                         f"got shape {arr.shape}")
    return pack_request_columns(arr[:, 0], arr[:, 1], multiplicative,
                                additive, artifact)


def pack_request_columns(u, v, multiplicative: float = math.inf,
                         additive: float = math.inf,
                         artifact: str = "") -> bytes:
    """:func:`pack_request` for a batch already held as two node columns.

    Same bytes on the wire.  A tier that forwards a decoded
    :class:`Request` packs its ``u``/``v`` as they are instead of staging
    them into an ``(N, 2)`` array that would be split straight back.
    """
    u = np.asarray(u, dtype="<i4")  # tobytes() below writes C order itself
    v = np.asarray(v, dtype="<i4")
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"node columns must be 1-D and equally long, "
                         f"got shapes {u.shape} and {v.shape}")
    hint = artifact.encode("utf-8")
    if len(hint) > 0xFFFF:
        raise ValueError("artifact hint too long")
    head = _REQUEST_HEAD.pack(multiplicative, additive, len(hint), len(u))
    return b"".join((head, hint, u.tobytes(), v.tobytes()))


def unpack_request(payload: bytes, req_id: int = 0) -> Request:
    if len(payload) < _REQUEST_HEAD.size:
        raise ProtocolError(
            ERR_BAD_FRAME, f"request payload of {len(payload)} bytes is "
            f"shorter than the {_REQUEST_HEAD.size}-byte request head",
            req_id)
    multiplicative, additive, hint_len, count = _REQUEST_HEAD.unpack_from(
        payload)
    offset = _REQUEST_HEAD.size
    if len(payload) != offset + hint_len + 8 * count:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"request advertises {count} pairs + {hint_len}-byte hint but "
            f"carries {len(payload) - offset} payload bytes "
            f"(expected {hint_len + 8 * count})", req_id)
    try:
        artifact = payload[offset:offset + hint_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(ERR_BAD_FRAME,
                            f"artifact hint is not UTF-8: {exc}", req_id)
    offset += hint_len
    u = np.frombuffer(payload, dtype="<i4", count=count, offset=offset)
    v = np.frombuffer(payload, dtype="<i4", count=count,
                      offset=offset + 4 * count)
    return Request(u=u, v=v, multiplicative=multiplicative,
                   additive=additive, artifact=artifact)


def pack_response(values) -> bytes:
    arr = np.ascontiguousarray(values, dtype="<f8")
    return _RESPONSE_HEAD.pack(arr.shape[0]) + arr.tobytes()


def unpack_response(payload: bytes, req_id: int = 0) -> np.ndarray:
    if len(payload) < _RESPONSE_HEAD.size:
        raise ProtocolError(ERR_BAD_FRAME, "response payload truncated",
                            req_id)
    (count,) = _RESPONSE_HEAD.unpack_from(payload)
    if len(payload) != _RESPONSE_HEAD.size + 8 * count:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"response advertises {count} distances but carries "
            f"{len(payload) - _RESPONSE_HEAD.size} payload bytes", req_id)
    return np.frombuffer(payload, dtype="<f8", count=count,
                         offset=_RESPONSE_HEAD.size)


def pack_error(code: int, message: str) -> bytes:
    encoded = message.encode("utf-8")[:0xFFFF]
    return _ERROR_HEAD.pack(code, len(encoded)) + encoded


def unpack_error(payload: bytes, req_id: int = 0) -> ProtocolError:
    """Decode a MSG_ERROR payload into the exception it transports."""
    if len(payload) < _ERROR_HEAD.size:
        raise ProtocolError(ERR_BAD_FRAME, "error payload truncated", req_id)
    code, msg_len = _ERROR_HEAD.unpack_from(payload)
    message = payload[_ERROR_HEAD.size:_ERROR_HEAD.size + msg_len].decode(
        "utf-8", errors="replace")
    return ProtocolError(code, message, req_id)


# ----------------------------------------------------------------------
# stream I/O
# ----------------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader, *, preread: bytes = b"",
                     max_payload: int = MAX_PAYLOAD,
                     ) -> Optional[Frame]:
    """Read one frame; returns a :class:`Frame` or None on clean EOF.

    The result unpacks as ``(type, req_id, payload)``; a flagged frame's
    deadline budget and trace blob are split off into ``frame.deadline``
    and ``frame.trace``.  EOF *between*
    frames is a clean close (None); EOF *inside* a frame is a truncated
    frame and raises :class:`ProtocolError`, as do bad magic, an
    unsupported version byte, and an oversized length prefix.
    ``preread`` is bytes already consumed by the caller's dialect sniff.
    """
    header = preread
    if len(header) < HEADER.size:
        try:
            header += await reader.readexactly(HEADER.size - len(header))
        except asyncio.IncompleteReadError as exc:
            if not exc.partial and not preread:
                return None  # clean EOF between frames
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"connection closed mid-header after "
                f"{len(preread) + len(exc.partial)} of {HEADER.size} bytes")
    magic, version, ftype, flags, req_id, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(ERR_BAD_FRAME,
                            f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERR_UNSUPPORTED_VERSION,
            f"unsupported protocol version {version} "
            f"(this build speaks {PROTOCOL_VERSION})", req_id)
    if length > max_payload:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"length prefix {length} exceeds the {max_payload}-byte "
            f"payload ceiling", req_id)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"connection closed mid-payload after {len(exc.partial)} of "
            f"{length} bytes", req_id)
    trace: Optional[bytes] = None
    deadline: Optional[float] = None
    if flags & FLAG_DEADLINE:
        if len(payload) < _DEADLINE_HEAD.size:
            raise ProtocolError(
                ERR_BAD_FRAME, "deadline frame too short for its budget "
                "prefix", req_id)
        (deadline,) = _DEADLINE_HEAD.unpack_from(payload)
        if not math.isfinite(deadline) or deadline < 0.0:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"deadline budget {deadline} is not a finite non-negative "
                f"duration", req_id)
        payload = payload[_DEADLINE_HEAD.size:]
    if flags & FLAG_TRACE:
        if len(payload) < _TRACE_HEAD.size:
            raise ProtocolError(
                ERR_BAD_FRAME, "traced frame too short for its trace-length "
                "prefix", req_id)
        (trace_len,) = _TRACE_HEAD.unpack_from(payload)
        if len(payload) < _TRACE_HEAD.size + trace_len:
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"traced frame advertises a {trace_len}-byte trace blob but "
                f"carries only {len(payload) - _TRACE_HEAD.size} bytes after "
                f"the prefix", req_id)
        trace = payload[_TRACE_HEAD.size:_TRACE_HEAD.size + trace_len]
        payload = payload[_TRACE_HEAD.size + trace_len:]
    return Frame(ftype, req_id, payload, trace, deadline)


# ----------------------------------------------------------------------
# HTTP fallback
# ----------------------------------------------------------------------
_HTTP_STATUS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                500: "Internal Server Error", 503: "Service Unavailable"}


async def read_http_request(reader: asyncio.StreamReader, *,
                            preread: bytes = b"",
                            max_bytes: int = MAX_HTTP_REQUEST,
                            ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Minimal HTTP/1.x request parser for the fallback endpoints.

    Returns ``(method, path, headers, body)`` or None when the peer
    closed before sending a full request.  Raises
    :class:`ProtocolError` (ERR_BAD_FRAME) on an unparseable request or
    one exceeding ``max_bytes``.
    """
    buffer = preread
    while b"\r\n\r\n" not in buffer:
        if len(buffer) > max_bytes:
            raise ProtocolError(ERR_BAD_FRAME, "HTTP header block too large")
        chunk = await reader.read(65536)
        if not chunk:
            return None
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(ERR_BAD_FRAME, f"malformed HTTP request line: {exc}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        content_length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError(ERR_BAD_FRAME, "malformed Content-Length header")
    if content_length > max_bytes:
        raise ProtocolError(ERR_BAD_FRAME,
                            f"HTTP body of {content_length} bytes too large")
    body = rest
    while len(body) < content_length:
        chunk = await reader.read(content_length - len(body))
        if not chunk:
            raise ProtocolError(ERR_BAD_FRAME, "connection closed mid-body")
        body += chunk
    return method.upper(), target, headers, body[:content_length]


def http_response(status: int, payload, content_type: str = "application/json"
                  ) -> bytes:
    """One complete ``Connection: close`` HTTP response."""
    if isinstance(payload, (bytes, bytearray)):
        body = bytes(payload)
    else:
        body = (json.dumps(jsonable(payload), indent=2, sort_keys=True)
                + "\n").encode("utf-8")
    reason = _HTTP_STATUS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def jsonable(obj):
    """Recursively convert HTTP payloads into strict-JSON-safe values.

    numpy scalars become Python scalars, tuples become lists, and
    non-finite floats become strings (``"inf"``/``"nan"``) so ``/query``
    and ``/metricsz`` output parses in any JSON reader, not just Python's.
    """
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf" / "-inf" / "nan"
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)
