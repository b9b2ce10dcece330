"""Asyncio TCP/HTTP servers for the net tier: shared base + worker process.

:class:`NetServiceBase` owns everything both tiers need to put sockets in
front of distance serving: the listening socket, per-connection dialect
sniffing (``RNET`` magic means binary frames, anything else is the
HTTP/JSON fallback on the same port), strict malformed-frame handling
(every failure becomes a typed MSG_ERROR frame or an HTTP error body —
nothing ever raises into the event loop), graceful drain, and wire
counters.  :class:`DistanceWorker` is the leaf: one process, one
:class:`~repro.serve.server.DistanceServer`, answering batched requests
through the vectorised :meth:`~repro.serve.server.DistanceServer.gather`
fast path.  ``worker_main`` is the ``multiprocessing`` entry point used
by :mod:`repro.net.cluster`: it builds the registry from the same shard
manifests every other worker maps (the OS page cache makes the N-process
fan-out nearly free), serves until SIGTERM/SIGINT, then drains.

Per-worker observability: ``GET /healthz`` answers liveness (and flips
to ``draining`` during shutdown); ``GET /metricsz`` is the one stats
surface — this process's obs registry (wire counters, the server's and
the engines' series, chaos injections) as Prometheus text or, with
``?format=json``, the mergeable snapshot a frontend folds into its fleet
view.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from operator import index
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.inject import injector_from_env
from repro.net.protocol import (
    ERR_BAD_FRAME,
    ERR_BAD_NODES,
    ERR_DATA_INTEGRITY,
    ERR_DEADLINE_EXCEEDED,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_ROUTING,
    ERR_SHUTTING_DOWN,
    MAGIC,
    MSG_ERROR,
    MSG_PING,
    MSG_PONG,
    MSG_REQUEST,
    MSG_RESPONSE,
    NetError,
    ProtocolError,
    Request,
    encode_frame,
    http_response,
    jsonable,
    pack_error,
    pack_response,
    read_frame,
    read_http_request,
    unpack_request,
)
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, to_prometheus_text
from repro.obs.metrics import get_registry, publish
from repro.obs.tracing import TraceContext, unpack_trace_blob
from repro.oracle.sharding import ShardIntegrityError
from repro.serve.registry import RegistryError
from repro.serve.router import RoutingError
from repro.serve.server import (
    DeadlineExceeded,
    DistanceServer,
    ServerClosed,
    ServerConfig,
    ServerOverloaded,
)


def _node_id(value) -> int:
    """A JSON node id as an int: ``index`` refuses a float (numpy would
    truncate it), and a boolean is no id although ``index(True)`` is 1."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a node id")
    return index(value)


class NetServiceBase:
    """A TCP server speaking the binary frame protocol + HTTP fallback.

    Subclasses implement :meth:`handle_request` (answer one decoded
    :class:`~repro.net.protocol.Request` with a float64 array) and may
    extend :meth:`handle_http` with extra endpoints.  The base maps every
    exception class a handler can raise to its typed wire error, so a
    malformed or unserviceable request is *answered*, never propagated.
    """

    role = "service"

    #: What every socket tier counts, labelled by ``role``.
    WIRE_SERIES = (
        ("repro_net_frames_in_total", "counter", "Binary frames decoded",
         lambda s: s.frames_in),
        ("repro_net_frames_out_total", "counter", "Binary frames sent",
         lambda s: s.frames_out),
        ("repro_net_http_requests_total", "counter", "HTTP fallback requests",
         lambda s: s.http_requests),
        ("repro_net_protocol_errors_total", "counter",
         "Malformed frames or HTTP requests", lambda s: s.protocol_errors),
        ("repro_net_wire_errors_total", "counter", "MSG_ERROR frames sent",
         lambda s: s.wire_errors),
        ("repro_net_open_connections", "gauge", "Connections currently served",
         lambda s: len(s._conn_tasks)),
    )

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port  # 0 = ephemeral; replaced by the bound port
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._draining = False
        self.frames_in = 0
        self.frames_out = 0
        self.http_requests = 0
        self.protocol_errors = 0
        self.wire_errors = 0  # MSG_ERROR frames sent
        #: Optional :class:`repro.chaos.FaultInjector`; None (the normal
        #: case) keeps every wired site at one ``is None`` check.
        self.chaos = None
        publish(self, self.WIRE_SERIES, labels={"role": self.role})

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "NetServiceBase":
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful drain: stop accepting, let live connections finish."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def __aenter__(self) -> "NetServiceBase":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    async def handle_request(self, request: Request,
                             trace: Optional[TraceContext] = None,
                             deadline: Optional[float] = None
                             ) -> np.ndarray:
        """Answer one request; append spans to ``trace`` when sampled.

        ``deadline`` is an absolute ``time.monotonic()`` instant (or
        None); handlers raise
        :class:`~repro.serve.server.DeadlineExceeded` when it has
        already passed rather than doing doomed work.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # per-connection dispatch
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            # Dialect sniff: the first four bytes decide binary vs HTTP.
            sniff = b""
            while len(sniff) < len(MAGIC):
                chunk = await reader.read(len(MAGIC) - len(sniff))
                if not chunk:
                    return  # peer connected and left without a request
                sniff += chunk
            if sniff == MAGIC:
                await self._serve_binary(reader, writer, sniff)
            else:
                await self._serve_http(reader, writer, sniff)
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass  # peer went away (or drain cancelled us) — never raise
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_binary(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            preread: bytes) -> None:
        """Frame loop: many pipelined requests per connection."""
        while True:
            try:
                frame = await read_frame(reader, preread=preread)
            except ProtocolError as exc:
                # Framing is broken: stream sync is lost, so answer the
                # typed error and close rather than guess at boundaries.
                self.protocol_errors += 1
                await self._send_error(writer, exc.req_id, exc.code, str(exc))
                return
            preread = b""
            if frame is None:
                return  # clean close between frames
            ftype, req_id, payload = frame
            self.frames_in += 1
            if ftype == MSG_PING:
                if not await self._send(writer, encode_frame(MSG_PONG, req_id)):
                    return
                continue
            if ftype != MSG_REQUEST:
                self.protocol_errors += 1
                await self._send_error(
                    writer, req_id, ERR_BAD_FRAME,
                    f"unexpected frame type {ftype} (expected REQUEST)")
                return
            try:
                request = unpack_request(payload, req_id)
            except ProtocolError as exc:
                # The frame boundary was sound (length prefix honoured),
                # only the payload is malformed: answer and keep serving.
                self.protocol_errors += 1
                if not await self._send_error(writer, req_id, exc.code,
                                              str(exc)):
                    return
                continue
            # The wire carries a *relative* budget (clock-skew safe);
            # re-anchor it to this process's monotonic clock on receipt.
            deadline = (time.monotonic() + frame.deadline
                        if frame.deadline is not None else None)
            if self.chaos is not None:
                verdict = await self._chaos_recv(writer, req_id)
                if verdict == "close":
                    return
                if verdict == "answered":
                    continue
            code, message, values, reply_trace = await self._answer(
                request, frame.trace, deadline=deadline)
            if values is not None:
                data = encode_frame(MSG_RESPONSE, req_id,
                                    pack_response(values), trace=reply_trace)
            else:
                self.wire_errors += 1
                data = encode_frame(MSG_ERROR, req_id,
                                    pack_error(code, message))
            if self.chaos is not None:
                spec = self.chaos.pick("worker.send")
                if spec is not None:
                    if spec.kind == "drop_connection":
                        return  # response lost: peer sees a dead link
                    if spec.kind == "corrupt_frame":
                        # Stomp the magic so the peer *detects* a broken
                        # frame (typed teardown + retry) — chaos must
                        # never corrupt distances silently.
                        data = b"\xff" * len(MAGIC) + data[len(MAGIC):]
            if not await self._send(writer, data):
                return  # client disconnected mid-request: stop quietly

    async def _chaos_recv(self, writer: asyncio.StreamWriter,
                          req_id: int) -> str:
        """Roll the ``worker.recv`` site; return what the frame loop does.

        ``"close"`` tears the connection down, ``"answered"`` means a
        fake error frame already went out, ``"continue"`` proceeds to
        the real handler (possibly after an injected stall).
        """
        spec = self.chaos.pick("worker.recv")
        if spec is None:
            return "continue"
        if spec.kind == "drop_connection":
            return "close"
        if spec.kind == "shed":
            ok = await self._send_error(writer, req_id, ERR_OVERLOADED,
                                        "chaos: injected shed")
            return "answered" if ok else "close"
        if spec.kind == "error_frame":
            ok = await self._send_error(writer, req_id, ERR_INTERNAL,
                                        "chaos: injected internal error")
            return "answered" if ok else "close"
        if spec.kind == "stuck_worker":
            # Deliberately block the event loop: /healthz stalls too,
            # which is exactly what the cluster supervisor looks for.
            time.sleep((spec.ms or 60000.0) / 1000.0)
        elif spec.ms:
            await asyncio.sleep(spec.ms / 1000.0)
        return "continue"

    async def _answer(self, request: Request,
                      trace_blob: Optional[bytes] = None,
                      deadline: Optional[float] = None,
                      ) -> Tuple[int, str, Optional[np.ndarray],
                                 Optional[bytes]]:
        """Run the handler, mapping every failure to a typed wire error.

        A request-side trace blob (the upstream tier sampled this
        request) opens a local :class:`TraceContext` under the same id;
        the spans the handler records travel back in the response frame's
        trace blob — responses carry a trace exactly when the request
        did.
        """
        trace: Optional[TraceContext] = None
        payload = unpack_trace_blob(trace_blob)
        if payload is not None:
            trace = TraceContext(payload["id"], self.role)
        try:
            values = await self.handle_request(request, trace=trace,
                                               deadline=deadline)
            reply = trace.to_blob() if trace is not None else None
            return 0, "", values, reply
        except (ServerClosed,) as exc:
            return ERR_SHUTTING_DOWN, str(exc), None, None
        except ServerOverloaded as exc:
            return ERR_OVERLOADED, str(exc), None, None
        except DeadlineExceeded as exc:
            return ERR_DEADLINE_EXCEEDED, str(exc), None, None
        except ShardIntegrityError as exc:
            return ERR_DATA_INTEGRITY, str(exc), None, None
        except (RoutingError, RegistryError) as exc:
            return ERR_ROUTING, str(exc), None, None
        except ValueError as exc:
            return ERR_BAD_NODES, str(exc), None, None
        except ProtocolError as exc:
            return exc.code, str(exc), None, None
        except NetError as exc:
            return ERR_INTERNAL, str(exc), None, None
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # the event-loop firewall
            return ERR_INTERNAL, f"{type(exc).__name__}: {exc}", None, None

    # ------------------------------------------------------------------
    # HTTP fallback
    # ------------------------------------------------------------------
    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          preread: bytes) -> None:
        self.http_requests += 1
        try:
            parsed = await read_http_request(reader, preread=preread)
        except ProtocolError as exc:
            self.protocol_errors += 1
            writer.write(http_response(400, {"error": "bad-request",
                                             "message": str(exc)}))
            await writer.drain()
            return
        if parsed is None:
            return
        method, path, _headers, body = parsed
        result = await self._http_route(method, path, body)
        status, payload = result[0], result[1]
        content_type = result[2] if len(result) > 2 else "application/json"
        writer.write(http_response(status, payload, content_type))
        await writer.drain()

    async def _http_route(self, method: str, path: str, body: bytes
                          ) -> Tuple:
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method-not-allowed"}
            return 200, self.health()
        if path == "/metricsz":
            if method != "GET":
                return 405, {"error": "method-not-allowed"}
            return await self._http_metrics(query)
        if path == "/query":
            if method != "POST":
                return 405, {"error": "method-not-allowed"}
            return await self._http_query(body)
        return 404, {"error": "not-found",
                     "endpoints": ["/healthz", "/metricsz", "/query"]}

    async def _http_metrics(self, query: str) -> Tuple:
        """``GET /metricsz``: Prometheus text, or the mergeable JSON
        snapshot with ``?format=json`` (what the fleet aggregator pulls)."""
        snapshot = await self._metrics_snapshot()
        if "format=json" in query:
            return 200, jsonable(snapshot)
        return (200, to_prometheus_text(snapshot).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE)

    async def _metrics_snapshot(self) -> Dict[str, object]:
        """This process's registry snapshot (the frontend overrides this
        with a fleet scrape-and-merge)."""
        return get_registry().snapshot()

    def health(self) -> Dict[str, object]:
        return {"status": "draining" if self._draining else "ok",
                "role": self.role, "port": self.port}

    async def _http_query(self, body: bytes) -> Tuple[int, object]:
        """JSON twin of the binary request, for curl-ability.

        ``{"pairs": [[u, v], ...], "multiplicative": m, "additive": a,
        "artifact": name}`` — only ``pairs`` is required.  Unreachable
        pairs come back as the string ``"inf"`` (strict JSON has no
        Infinity); the binary protocol carries real IEEE infinities.
        """
        try:
            spec = json.loads(body or b"{}")
            pairs = spec["pairs"]
            # An int that does not fit int32 is numpy 2's OverflowError.
            request = Request(
                u=np.asarray([_node_id(pair[0]) for pair in pairs],
                             dtype=np.int32),
                v=np.asarray([_node_id(pair[1]) for pair in pairs],
                             dtype=np.int32),
                multiplicative=float(spec.get("multiplicative", math.inf)),
                additive=float(spec.get("additive", math.inf)),
                artifact=str(spec.get("artifact", "")),
            )
        except (KeyError, TypeError, ValueError, IndexError, OverflowError,
                json.JSONDecodeError) as exc:
            return 400, {"error": "bad-request",
                         "message": f"malformed query body: {exc}"}
        code, message, values, _reply_trace = await self._answer(request)
        if values is None:
            status = {ERR_OVERLOADED: 503, ERR_SHUTTING_DOWN: 503,
                      ERR_ROUTING: 404, ERR_BAD_NODES: 400,
                      ERR_BAD_FRAME: 400}.get(code, 500)
            from repro.net.protocol import ERROR_NAMES

            return status, {"error": ERROR_NAMES.get(code, str(code)),
                            "message": message}
        return 200, {"distances": jsonable(values.tolist())}

    # ------------------------------------------------------------------
    # send helpers
    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, data: bytes) -> bool:
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):
            return False  # mid-request client disconnect: drop quietly
        self.frames_out += 1
        return True

    async def _send_error(self, writer: asyncio.StreamWriter, req_id: int,
                          code: int, message: str) -> bool:
        self.wire_errors += 1
        return await self._send(
            writer, encode_frame(MSG_ERROR, req_id, pack_error(code, message)))


class DistanceWorker(NetServiceBase):
    """One worker process: a socket front end over one DistanceServer.

    Batched requests resolve through the server's vectorised
    :meth:`~repro.serve.server.DistanceServer.gather` — one route, one
    validation pass, and one engine gather chain per *frame*.  The
    artifact hint pins the table a front tier routed to; requests without
    a hint route by stretch budget exactly like in-process callers.
    """

    role = "worker"

    def __init__(self, server: DistanceServer, host: str = "127.0.0.1",
                 port: int = 0, worker_id: int = 0):
        super().__init__(host=host, port=port)
        self.worker_id = worker_id
        self.server = server

    async def handle_request(self, request: Request,
                             trace: Optional[TraceContext] = None,
                             deadline: Optional[float] = None
                             ) -> np.ndarray:
        if self._draining:
            raise ServerClosed("worker is draining")
        if deadline is not None and time.monotonic() >= deadline:
            # Dequeue-time check: the frame sat behind enough pipelined
            # work (or injected stalls) that nobody is waiting anymore.
            raise DeadlineExceeded(
                "request deadline expired before the worker dequeued it")
        if self.chaos is not None:
            spec = self.chaos.pick("worker.gather")
            if spec is not None and spec.ms:
                await asyncio.sleep(spec.ms / 1000.0)
        return await self.server.gather(
            request.u, request.v,
            multiplicative=request.multiplicative,
            additive=request.additive,
            artifact=request.artifact or None,
            trace=trace,
            deadline=deadline,
        )

    def health(self) -> Dict[str, object]:
        health = super().health()
        health["worker_id"] = self.worker_id
        return health


async def run_worker(artifacts: Sequence[str], host: str, port: int,
                     *, worker_id: int = 0, capacity: int = 4,
                     config: Optional[ServerConfig] = None,
                     ready: Optional[asyncio.Event] = None,
                     stop: Optional[asyncio.Event] = None) -> None:
    """Serve one worker until ``stop`` (or SIGTERM/SIGINT), then drain.

    Builds the registry from ``artifacts`` (metadata only — engines
    load lazily on first query, shard payloads stay memory-mapped), binds
    the socket, and installs signal handlers for graceful drain: stop
    accepting, finish in-flight frames, exit.
    """
    from repro.serve.registry import build_registry
    from repro.serve.router import StretchRouter

    registry = build_registry(artifacts, capacity=capacity)
    server = DistanceServer(StretchRouter(registry),
                            config=config or ServerConfig())
    worker = DistanceWorker(server, host=host, port=port, worker_id=worker_id)
    # Fault injection rides in on REPRO_CHAOS (inherited from the Cluster
    # spawner); a malformed plan fails the worker loudly at startup.
    worker.chaos = injector_from_env(worker_id)
    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix event loops: rely on the stop event
    async with server:
        await worker.start()
        if ready is not None:
            ready.set()
        try:
            await stop.wait()
        finally:
            await worker.stop()


def worker_main(artifacts: Sequence[str], host: str, port: int,
                worker_id: int = 0, capacity: int = 4,
                max_batch: int = ServerConfig.max_batch) -> None:
    """``multiprocessing`` entry point: one worker process, one event loop.

    ``max_batch`` is the one :class:`ServerConfig` key a worker reads (see
    :class:`~repro.net.cluster.Cluster`)."""
    config = ServerConfig(max_batch=max_batch)
    try:
        asyncio.run(run_worker(artifacts, host, port,
                               worker_id=worker_id, capacity=capacity,
                               config=config))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C
        pass


__all__ = [
    "DistanceWorker",
    "NetServiceBase",
    "run_worker",
    "worker_main",
]
