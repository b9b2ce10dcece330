"""Observability integration over a real 2-worker fleet: trace-id
propagation across client → frontend → worker, per-stage spans summing
to the observed end-to-end latency, worker ``/metricsz`` exposition,
frontend fleet aggregation, and the wire contract around tracing (an
untraced frame is answered untraced; a refused version is an error, not
a negotiation)."""

from __future__ import annotations

import asyncio
import math
import statistics
import time

import pytest

from repro.net.bench import synthetic_sharded_artifact
from repro.net.cluster import Cluster, free_port
from repro.net.frontend import Frontend, NetClient, WorkerLink
from repro.net.protocol import (
    ERR_UNSUPPORTED_VERSION,
    FLAG_DEADLINE,
    FLAG_TRACE,
    HEADER,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    pack_error,
    pack_request,
    read_frame,
)
from repro.obs.export import fetch_snapshot, fetch_text
from repro.obs.tracing import (
    get_tracer,
    set_sample_rate,
    trace_capable_blob,
    unpack_trace_blob,
)

N = 48

#: Every stage a single traced dist() call must cross in a 2-worker fleet.
EXPECTED_SPANS = {"client.coalesce", "client.request", "frontend.route",
                  "frontend.fanout", "worker.queue", "worker.gather"}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return synthetic_sharded_artifact(
        tmp_path_factory.mktemp("obs-net"), n=N, num_shards=3, seed=23)


@pytest.fixture(scope="module")
def cluster(manifest):
    with Cluster([str(manifest)], num_workers=2) as fleet:
        yield fleet


@pytest.fixture
def full_sampling():
    tracer = get_tracer()
    tracer.clear()
    set_sample_rate(1.0)
    try:
        yield tracer
    finally:
        set_sample_rate(0.0)
        tracer.clear()


def test_trace_propagates_across_fleet(cluster, manifest, full_sampling):
    """A sampled dist() yields one trace holding spans from all three
    tiers, and the two contiguous client stages (coalesce wait + wire
    round trip) account for the observed end-to-end latency."""
    calls = 9

    async def drive():
        frontend = Frontend([str(manifest)], cluster.addresses,
                            port=free_port(), request_timeout=5.0)
        await frontend.start()
        try:
            e2e_us = []
            async with NetClient(*frontend.address, client="trace-test",
                                 coalesce_window=0.002) as client:
                for index in range(calls):
                    t0 = asyncio.get_running_loop().time()
                    await client.dist(index % N, (index * 7 + 3) % N)
                    e2e_us.append(
                        (asyncio.get_running_loop().time() - t0) * 1e6)
            await asyncio.sleep(0.05)  # let the last flush task finish
            return e2e_us
        finally:
            await frontend.stop()

    e2e_us = asyncio.run(drive())
    traces = full_sampling.traces()
    assert len(traces) == calls

    ratios = []
    for ctx, observed in zip(traces, e2e_us):
        names = {span.name for span in ctx.spans}
        assert names >= EXPECTED_SPANS, names
        # The envelope spans nest (client.request wraps frontend.fanout
        # wraps worker.gather), so the e2e comparison uses the two
        # *contiguous* client stages, not the sum of every span.
        client_us = sum(span.duration_us for span in ctx.spans
                        if span.name in ("client.coalesce", "client.request"))
        ratios.append(client_us / observed)
        # Nested downstream stages can never exceed their envelope.
        fanout = sum(s.duration_us for s in ctx.spans
                     if s.name == "frontend.fanout")
        request = sum(s.duration_us for s in ctx.spans
                      if s.name == "client.request")
        assert fanout <= request

    assert 0.90 <= statistics.median(ratios) <= 1.10


def test_worker_exposes_prometheus_metrics(cluster, manifest):
    def engine_queries() -> float:
        """``repro_engine_queries_total`` summed over the fleet."""
        total = 0.0
        for address in cluster.addresses:
            family = fetch_snapshot(*address)["counters"].get(
                "repro_engine_queries_total", {"values": {}})
            total += sum(family["values"].values())
        return total

    async def warm():
        # Hedging off: a hedged sub-batch would be answered (and counted)
        # twice.
        frontend = Frontend([str(manifest)], cluster.addresses,
                            port=free_port(), request_timeout=5.0,
                            hedge_ratio=0.0)
        await frontend.start()
        try:
            async with NetClient(*frontend.address) as client:
                await client.batch(pairs)
        finally:
            await frontend.stop()

    pairs = [(0, 1), (2, 3), (4, 5), (N - 1, 7), (9, 9)]
    before = engine_queries()
    asyncio.run(warm())
    # Wire traffic enters the engine through batch_core: the counter moves
    # by exactly the pairs sent, wherever in the fleet they were answered.
    assert engine_queries() - before == len(pairs)
    host, port = cluster.addresses[0]
    text = fetch_text(host, port)
    assert "# TYPE repro_net_frames_in_total counter" in text
    assert 'role="worker"' in text
    assert "repro_serve_requests_total" in text
    assert "repro_engine_queries_total" in text
    # The same endpoint serves the mergeable JSON snapshot form.
    snapshot = fetch_snapshot(host, port)
    assert set(snapshot) == {"counters", "gauges", "recorders"}
    frames = snapshot["counters"]["repro_net_frames_in_total"]["values"]
    assert sum(frames.values()) > 0


def test_frontend_aggregates_fleet_snapshot(cluster, manifest):
    async def drive():
        frontend = Frontend([str(manifest)], cluster.addresses,
                            port=free_port(), request_timeout=5.0)
        await frontend.start()
        try:
            async with NetClient(*frontend.address) as client:
                await client.batch([(index % N, (index * 5 + 1) % N)
                                    for index in range(40)])
            # The frontend's own HTTP server runs on *this* loop, so the
            # synchronous scrape has to happen off-thread.
            snapshot = await asyncio.to_thread(
                fetch_snapshot, frontend.host, frontend.port)
            text = await asyncio.to_thread(
                fetch_text, frontend.host, frontend.port)
            return snapshot, text
        finally:
            await frontend.stop()

    snapshot, text = asyncio.run(drive())
    assert snapshot["fleet"] == {"workers": 2, "workers_scraped": 2}
    served = snapshot["counters"]["repro_serve_requests_total"]["values"]
    assert sum(served.values()) > 0
    assert "repro_frontend_healthy_workers" in text
    assert "repro_serve_requests_total" in text
    assert "repro_serve_latency_us" in snapshot["recorders"]
    # The frontend routed every frame itself: its router's per-artifact
    # count is a fleet series (workers answer pinned frames, unrouted).
    name = manifest.name.removesuffix(".shards.json")
    routes = snapshot["counters"]["repro_router_routes_total"]["values"]
    assert routes[f'artifact="{name}"'] >= 1
    assert "repro_router_rejected_total" in snapshot["counters"]


def test_v1_client_is_served_untraced(cluster):
    """An untraced frame is answered with a plain response; a traced
    frame gets its spans back."""
    host, port = cluster.addresses[0]

    async def drive():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = pack_request([(0, 1), (2, 3)], math.inf, math.inf, "")
            writer.write(encode_frame(MSG_REQUEST, 1, payload))
            await writer.drain()
            plain = await read_frame(reader)

            trace_id = "feedfacefeedface"
            writer.write(encode_frame(MSG_REQUEST, 2, payload,
                                      trace=trace_capable_blob(trace_id)))
            await writer.drain()
            traced = await read_frame(reader)
            return plain, traced, trace_id
        finally:
            writer.close()

    plain, traced, trace_id = asyncio.run(drive())
    assert plain[0] == MSG_RESPONSE
    assert plain.trace is None
    assert traced[0] == MSG_RESPONSE
    remote = unpack_trace_blob(traced.trace)
    assert remote is not None and remote["id"] == trace_id
    names = {span["name"] for span in remote["spans"]}
    assert {"worker.queue", "worker.gather"} <= names


def test_worker_link_surfaces_unsupported_version_without_resending():
    """There is one wire version and nothing to negotiate down to: a peer
    that refuses it gets the frame once, and the caller gets the typed
    error."""
    seen_flags = []

    async def refusing_peer(reader, writer):
        while True:
            head = await reader.read(HEADER.size)
            if len(head) < HEADER.size:
                break
            _magic, version, _ftype, flags, req_id, length = \
                HEADER.unpack(head)
            await reader.readexactly(length)
            seen_flags.append((version, flags))
            writer.write(encode_frame(MSG_ERROR, req_id, pack_error(
                ERR_UNSUPPORTED_VERSION, f"version {version}")))
            await writer.drain()

    async def drive():
        server = await asyncio.start_server(refusing_peer, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            link = WorkerLink("127.0.0.1", port)
            try:
                blob = trace_capable_blob("0123456789abcdef")
                with pytest.raises(ProtocolError) as excinfo:
                    await link.request([(0, 1)], trace=blob, timeout=5.0,
                                       deadline=time.monotonic() + 5.0)
                return excinfo.value.code
            finally:
                await link.close()

    assert asyncio.run(drive()) == ERR_UNSUPPORTED_VERSION
    assert seen_flags == [(PROTOCOL_VERSION, FLAG_DEADLINE | FLAG_TRACE)]
