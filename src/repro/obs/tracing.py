"""Sampled cross-tier request tracing for the oracle/serving/net stack.

A sampled ``dist()`` call carries a 16-hex-digit trace id across the
wire (see ``repro.net.protocol``: a traced frame sets the ``FLAG_TRACE``
bit and carries the blob ahead of its payload).  Each tier
appends named spans to the trace as the request passes through:

* ``client.coalesce`` — time a key waits in the client's coalescing
  buffer before its micro-batch is flushed,
* ``client.request``  — wire round-trip of the flushed batch,
* ``frontend.route``  — artifact resolution + shard-affinity planning,
* ``frontend.fanout`` — fan-out/fan-in across workers,
* ``worker.queue``    — admission/backpressure wait in the worker's
  ``DistanceServer``,
* ``worker.gather``   — the vectorized per-shard gather itself.

Downstream tiers return their spans in the *response* trace blob, so
the caller's tracer ends up holding the complete multi-tier trace —
no central collector, no worker-side persistence.

Traces export as JSONL whose records satisfy the ``loadgen``
raw-sample contract (``t``/``latency_us``/``status`` keys), so
``LoadReport.from_jsonl`` and every existing report tool can slice
span populations exactly like request populations.

Sampling is probabilistic per request (``REPRO_TRACE_SAMPLE`` env, or
:func:`set_sample_rate`); an *incoming* trace id always wins — if the
upstream tier sampled the request, every tier below traces it.
"""

from __future__ import annotations

import json
import os
import random
import struct
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "set_sample_rate",
    "trace_capable_blob",
    "unpack_trace_blob",
]

#: Environment variable read at process start (spawned worker processes
#: inherit it, so `repro net serve --trace-sample` needs no config plumbing).
SAMPLE_ENV_VAR = "REPRO_TRACE_SAMPLE"


def _env_sample_rate() -> float:
    raw = os.environ.get(SAMPLE_ENV_VAR, "").strip()
    if not raw:
        return 0.0
    try:
        return min(1.0, max(0.0, float(raw)))
    except ValueError:
        return 0.0


class Span:
    """One named, timed stage of a request within one tier."""

    __slots__ = ("name", "tier", "start", "duration_us")

    def __init__(self, name: str, tier: str, start: float, duration_us: float):
        self.name = name
        self.tier = tier
        self.start = start
        self.duration_us = duration_us

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "tier": self.tier,
                "start": self.start, "duration_us": self.duration_us}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(str(data.get("name", "?")), str(data.get("tier", "?")),
                   float(data.get("start", 0.0)),
                   float(data.get("duration_us", 0.0)))


class TraceContext:
    """One request's trace: an id plus the spans recorded so far.

    Spans from remote tiers arrive via :meth:`ingest` (parsed from a
    response frame's trace blob); local stages are timed with the
    :meth:`span` context manager or recorded explicitly with
    :meth:`add` when the stage's endpoints don't nest lexically
    (e.g. coalesce wait measured across an enqueue/flush pair).
    """

    __slots__ = ("trace_id", "tier", "spans")

    def __init__(self, trace_id: str, tier: str):
        self.trace_id = trace_id
        self.tier = tier
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.time()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed_us = (time.perf_counter_ns() - t0) / 1000.0
            self.spans.append(Span(name, self.tier, start, elapsed_us))

    def add(self, name: str, start: float, duration_us: float) -> None:
        self.spans.append(Span(name, self.tier, start, duration_us))

    def ingest(self, payload: Dict[str, Any]) -> None:
        """Fold spans from a remote tier's trace blob into this trace."""
        for item in payload.get("spans", ()):
            self.spans.append(Span.from_dict(item))

    # ------------------------------------------------------------------
    # wire form — the opaque blob the protocol layer carries
    # ------------------------------------------------------------------
    def to_blob(self, include_spans: bool = True) -> bytes:
        """Compact binary wire blob.  Requests send id-only (spans travel
        *back*).  Binary, not JSON: the blob is re-encoded on every
        traced response frame, and float serialization through the JSON
        encoder was the single largest line item in the traced-frame
        overhead (``bench/run.py``'s ``obs.trace_overhead``)."""
        return _encode_blob(self.trace_id,
                            self.spans if include_spans else ())

    def stage_total_us(self) -> float:
        return sum(span.duration_us for span in self.spans)

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.trace_id, "tier": self.tier,
                "spans": [span.to_dict() for span in self.spans]}


#: Binary blob layout: magic byte, u8 id length + id bytes, u16 span
#: count, then per span u8-length-prefixed name and tier plus two f64s
#: (start, duration_us).  JSON blobs (first byte ``{``) are accepted on
#: decode so hand-rolled clients can still announce a trace readably.
_BLOB_MAGIC = 0x54  # 'T'
_BLOB_HEAD = struct.Struct("!BB")
_BLOB_COUNT = struct.Struct("!H")
_SPAN_TIMES = struct.Struct("!dd")


def _encode_blob(trace_id: str, spans) -> bytes:
    ident = trace_id.encode("utf-8")[:255]
    spans = list(spans)[:0xFFFF]
    parts = [_BLOB_HEAD.pack(_BLOB_MAGIC, len(ident)), ident,
             _BLOB_COUNT.pack(len(spans))]
    for span in spans:
        name = span.name.encode("utf-8")[:255]
        tier = span.tier.encode("utf-8")[:255]
        parts.append(bytes((len(name),)) + name)
        parts.append(bytes((len(tier),)) + tier)
        parts.append(_SPAN_TIMES.pack(span.start, span.duration_us))
    return b"".join(parts)


def _decode_binary_blob(blob: bytes) -> Optional[Dict[str, Any]]:
    try:
        magic, id_len = _BLOB_HEAD.unpack_from(blob, 0)
        if magic != _BLOB_MAGIC:
            return None
        offset = _BLOB_HEAD.size
        trace_id = blob[offset:offset + id_len].decode("utf-8")
        if len(trace_id.encode("utf-8")) != id_len:
            return None
        offset += id_len
        (count,) = _BLOB_COUNT.unpack_from(blob, offset)
        offset += _BLOB_COUNT.size
        spans = []
        for _ in range(count):
            name_len = blob[offset]
            name = blob[offset + 1:offset + 1 + name_len].decode("utf-8")
            offset += 1 + name_len
            tier_len = blob[offset]
            tier = blob[offset + 1:offset + 1 + tier_len].decode("utf-8")
            offset += 1 + tier_len
            start, duration_us = _SPAN_TIMES.unpack_from(blob, offset)
            offset += _SPAN_TIMES.size
            spans.append({"name": name, "tier": tier, "start": start,
                          "duration_us": duration_us})
        if offset > len(blob):
            return None
        return {"id": trace_id, "spans": spans}
    except (struct.error, IndexError, UnicodeDecodeError):
        return None


def unpack_trace_blob(blob: Optional[bytes]) -> Optional[Dict[str, Any]]:
    """Parse a wire trace blob; malformed blobs degrade to None, never raise.

    Tracing must never take down the serving path — a peer sending a
    corrupt trace blob loses its trace, not its answer.
    """
    if not blob:
        return None
    if blob[0] == _BLOB_MAGIC:
        return _decode_binary_blob(bytes(blob))
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("id"), str):
        return None
    return payload


def trace_capable_blob(trace_id: str) -> bytes:
    """The id-only request blob announcing "trace this request"."""
    return _encode_blob(trace_id, ())


class Tracer:
    """Per-process trace sampler and bounded store of finished traces."""

    def __init__(self, sample_rate: Optional[float] = None,
                 capacity: int = 1024, tier: str = "client"):
        if sample_rate is None:
            sample_rate = _env_sample_rate()
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self.tier = tier
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=int(capacity))
        self._rng = random.Random()
        self.started = 0
        self.finished = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def maybe_start(self, trace_id: Optional[str] = None
                    ) -> Optional[TraceContext]:
        """Start a trace if sampled, or unconditionally when the request
        already carries an upstream trace id (the upstream tier decided)."""
        if trace_id is None:
            if self.sample_rate <= 0.0 or self._rng.random() >= self.sample_rate:
                return None
            trace_id = f"{self._rng.getrandbits(64):016x}"
        self.started += 1
        return TraceContext(trace_id, self.tier)

    def finish(self, ctx: Optional[TraceContext]) -> None:
        if ctx is None:
            return
        with self._lock:
            self._traces.append(ctx)
            self.finished += 1

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def traces(self) -> List[TraceContext]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def span_records(self) -> List[Dict[str, Any]]:
        """Flatten finished traces into loadgen-compatible raw samples.

        Each span becomes one record carrying the ``t`` / ``latency_us``
        / ``status`` keys ``LoadReport.from_jsonl`` requires, with the
        trace id, span name, and tier as extra keys (``from_jsonl``
        passes unknown keys through).  ``client`` is ``tier/span`` so
        per-stage populations separate with the existing per-client
        reporting machinery.
        """
        records = []
        for ctx in self.traces():
            for span in ctx.spans:
                records.append({
                    "t": span.start,
                    "client": f"{span.tier}/{span.name}",
                    "latency_us": span.duration_us,
                    "status": "ok",
                    "trace": ctx.trace_id,
                    "span": span.name,
                    "tier": span.tier,
                })
        return records

    def export_jsonl(self, path: str) -> int:
        """Append span records as JSONL; returns the record count."""
        records = self.span_records()
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(records)


#: Per-process default tracer; worker processes build their own on import,
#: re-reading REPRO_TRACE_SAMPLE from the (inherited) environment.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def set_sample_rate(rate: float) -> None:
    """Adjust the process-wide sampling rate (1.0 = trace everything)."""
    _TRACER.sample_rate = min(1.0, max(0.0, float(rate)))
