"""Front-tier tests: what shard-affinity partitioning refuses or sends,
artifact pinning for cross-worker determinism, failover with bounded
retries, dead-worker ejection and re-routing, and the coalescing
NetClient — real workers on localhost sockets, fleets of one to three.
The failure-path cases (attempt budget, hedging, timeouts) script what a
link's wire does instead, so they need neither sockets nor sleeps.  That
the wire answers every payload bit for bit is the conformance matrix's
(``test_engine_reference.py``)."""

from __future__ import annotations

import asyncio
from pathlib import Path

import numpy as np
import pytest

from conftest import make_worker, running_fleet, start_fleet, stop_fleet
from repro.net.bench import synthetic_sharded_artifact
from repro.net.frontend import (
    HEDGE_DELAY_REFRESH,
    Frontend,
    MiscountedReply,
    NetClient,
    WorkerLink,
    WorkerUnavailable,
)
from repro.net.protocol import (
    ERR_BAD_FRAME,
    MSG_PING,
    MSG_PONG,
    MSG_RESPONSE,
    NetError,
    Request,
    encode_frame,
    pack_response,
    read_frame,
    unpack_request,
)
from repro.obs.metrics import LatencyRecorder, get_registry
from repro.obs.tracing import TraceContext
from repro.oracle import OracleArtifact, load_artifact
from repro.serve import RoutingError, build_registry

N = 64
FLEET_SIZES = (1, 2, 3)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory) -> Path:
    return synthetic_sharded_artifact(
        tmp_path_factory.mktemp("net-frontend"), n=N, num_shards=4, seed=5)


@pytest.fixture(scope="module")
def table(manifest) -> np.ndarray:
    return load_artifact(manifest).materialize("dist")


@pytest.fixture(scope="module")
def artifacts(manifest, table, tmp_path_factory):
    """The same table as four row shards and as one."""
    one, _shards = OracleArtifact(
        metadata=dict(load_artifact(manifest).metadata),
        arrays={"dist": table},
    ).save_sharded(tmp_path_factory.mktemp("net-frontend-one") / "one")
    return {"4-shard": manifest, "1-shard": one}


@pytest.fixture(scope="module")
def reference(manifest):
    registry = build_registry([str(manifest)])
    return registry.engine(registry.entries()[0].name)


def pairs_covering_all_shards(count=200):
    return [(index % N, (index * 13 + 7) % N) for index in range(count)]


def scripted(link: WorkerLink, table: np.ndarray, behave=None) -> None:
    """Put a script where ``link``'s wire is.

    Every frame the link would have sent reaches ``behave(request)``
    instead (``_roundtrip`` is the one door to the socket); it may raise,
    wait, or return None to answer from the table.
    """
    async def roundtrip(ftype, payload, timeout, trace=None, deadline=None):
        link.requests += 1
        request = unpack_request(payload)
        values = None if behave is None else await behave(request)
        if values is None:
            values = table[request.u, request.v]
        return values

    link._roundtrip = roundtrip


def scripted_frontend(manifest, table, num_links, **kwargs) -> Frontend:
    """A frontend that is never started: its links' wires are scripts."""
    frontend = Frontend([str(manifest)], [("127.0.0.1", 1)] * num_links,
                        **kwargs)
    for link in frontend.links():
        scripted(link, table)
    return frontend


def frame_request(pairs) -> Request:
    pairs = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
    return Request(u=pairs[:, 0].copy(), v=pairs[:, 1].copy())


def shard_frame(shard: int, count: int = 8) -> np.ndarray:
    """Pairs whose canonical row lives in ``shard`` of the four, so the
    frame has one owner: healthy link ``shard % links``."""
    rows = np.arange(count) % (N // 4) + shard * (N // 4)
    return np.stack([rows, np.full(count, N - 1)], axis=1)


class TestPartitioning:
    @pytest.mark.parametrize("num_workers", FLEET_SIZES)
    def test_empty_batch(self, manifest, num_workers):
        async def drive():
            async with running_fleet(manifest, num_workers) as (frontend, _):
                async with NetClient(*frontend.address) as client:
                    return await client.batch([])

        assert asyncio.run(drive()).size == 0

    @pytest.mark.parametrize("num_workers", FLEET_SIZES)
    def test_out_of_range_nodes_rejected_at_the_front(self, manifest,
                                                      num_workers):
        async def drive():
            async with running_fleet(manifest, num_workers,
                                     hedge_ratio=0.0) as (frontend, workers):
                async with NetClient(*frontend.address) as client:
                    await client.batch(pairs_covering_all_shards(40))
                    sent = [link.requests for link in frontend.links()]
                    for bad in ([(0, N + 50)], [(-1, 3)], [(2, 3), (N, 0)]):
                        with pytest.raises(ValueError):
                            await client.batch(bad)
                    # Refused before any send, not after a worker said no.
                    assert [link.requests
                            for link in frontend.links()] == sent
                return sum(worker.server.stats()["served"]
                           for worker in workers)

        assert asyncio.run(drive()) == 40  # only the sound frame was served

    def test_unsatisfiable_budget_is_routing_error(self, manifest):
        async def drive():
            frontend, workers = await start_fleet(manifest)
            try:
                async with NetClient(*frontend.address) as client:
                    with pytest.raises(RoutingError):
                        await client.batch([(0, 1)], multiplicative=0.5,
                                           additive=0.0)
            finally:
                await stop_fleet(frontend, workers)

        asyncio.run(drive())

class TestFailover:
    def test_dead_worker_is_retried_ejected_and_rerouted(
            self, manifest, reference):
        async def drive():
            frontend, workers = await start_fleet(
                manifest, request_timeout=2.0, eject_after=2)
            try:
                pairs = pairs_covering_all_shards()
                async with NetClient(*frontend.address) as client:
                    await client.batch(pairs[:40])  # warm both links
                    await workers[1].stop(drain_timeout=0.1)  # kill one
                    results = [await client.batch(pairs) for _ in range(4)]
                stats = frontend.stats()
                return pairs, results, stats, frontend.healthy_links()
            finally:
                await stop_fleet(frontend, workers[:1])

        pairs, results, stats, healthy = asyncio.run(drive())
        want = reference.batch(pairs)
        for got in results:  # zero wrong answers through the failover
            assert np.allclose(got, want)
        assert stats["failovers"] >= 1
        assert stats["ejections"] == 1
        assert len(healthy) == 1  # dead worker left the rotation

    def test_all_workers_dead_raises_net_error(self, manifest):
        async def drive():
            frontend, workers = await start_fleet(
                manifest, request_timeout=1.0, eject_after=1, max_attempts=2)
            try:
                async with NetClient(*frontend.address) as client:
                    await client.batch([(0, 1)])
                    for worker in workers:
                        await worker.stop(drain_timeout=0.1)
                    with pytest.raises((NetError, WorkerUnavailable)):
                        # Enough calls to eject every worker.
                        for _ in range(4):
                            await client.batch([(0, 1)])
            finally:
                await stop_fleet(frontend, [])
                for worker in workers:
                    await worker.server.__aexit__(None, None, None)

        asyncio.run(drive())

    def test_readmit_recovers_an_ejected_worker(self, manifest):
        async def drive():
            frontend, workers = await start_fleet(manifest, eject_after=1)
            try:
                frontend.links()[1].breaker.force_open()
                assert len(frontend.healthy_links()) == 1
                await frontend._probe(1)
                return len(frontend.healthy_links())
            finally:
                await stop_fleet(frontend, workers)

        assert asyncio.run(drive()) == 2


class TestNetClientCoalescing:
    def test_concurrent_dists_coalesce_onto_one_wire_request(
            self, manifest, reference):
        async def drive():
            frontend, workers = await start_fleet(manifest)
            try:
                pairs = pairs_covering_all_shards(80)
                async with NetClient(*frontend.address,
                                     coalesce_window=0.002) as client:
                    values = await asyncio.gather(
                        *(client.dist(u, v) for u, v in pairs))
                    wire_requests = client.link.requests
                return pairs, values, wire_requests
            finally:
                await stop_fleet(frontend, workers)

        pairs, values, wire_requests = asyncio.run(drive())
        assert np.allclose(values, reference.batch(pairs))
        # 80 awaited pairs collapsed into far fewer wire round trips.
        assert wire_requests < len(pairs) / 2

    def test_close_settles_callers_of_a_frame_in_flight(self):
        """``aclose()`` while a coalesced frame is out: its ``dist()``
        callers (and the ones still parked) fail with WorkerUnavailable
        instead of waiting forever on a reply that will never be read."""
        async def drive():
            received = asyncio.Event()

            async def mute(reader, writer):  # reads, never replies
                try:
                    if await reader.read(1):
                        received.set()
                    await reader.read()
                finally:
                    writer.close()

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            try:
                client = NetClient(*server.sockets[0].getsockname()[:2])
                in_flight = asyncio.ensure_future(client.dist(1, 2))
                await asyncio.wait_for(received.wait(), timeout=5.0)
                parked = asyncio.ensure_future(client.dist(3, 4))
                await asyncio.sleep(0)  # let it park behind the frame
                await client.aclose()
                _done, pending = await asyncio.wait(
                    {in_flight, parked}, timeout=0.2)
                for task in pending:
                    task.cancel()
                return [None if task in pending else task.exception()
                        for task in (in_flight, parked)]
            finally:
                server.close()
                await server.wait_closed()

        in_flight_error, parked_error = asyncio.run(drive())
        assert isinstance(in_flight_error, WorkerUnavailable)  # None: stranded
        assert isinstance(parked_error, WorkerUnavailable)

    def test_short_reply_settles_every_caller_of_the_frame(self, table):
        """A reply with fewer values than the frame had pairs (a worker
        bug, a truncated frame that still parses): all three callers get
        the typed miscount error naming both counts, not a hang."""
        async def drive():
            async def drop_last(request):
                return table[request.u, request.v][:-1]

            client = NetClient("127.0.0.1", 1)
            scripted(client.link, table, drop_last)
            try:
                callers = [asyncio.ensure_future(client.dist(u, v))
                           for u, v in ((1, 2), (3, 4), (5, 6))]
                _done, pending = await asyncio.wait(callers, timeout=10.0)
                for task in pending:
                    task.cancel()
                return [None if task in pending else task.exception()
                        for task in callers], client.link.requests
            finally:
                await client.aclose()

        errors, requests = asyncio.run(drive())
        assert requests == 1
        for error in errors:  # None: stranded
            assert isinstance(error, MiscountedReply)
            assert "answered 2 distance(s) to a request of 3 pair(s)" \
                in str(error)

    def test_timed_out_caller_does_not_cancel_the_others_answer(self, table):
        """Two callers of one pair, the first under a ``wait_for`` that
        expires while the frame is out: it alone times out; the other
        gets the value, from the one wire request."""
        async def drive():
            out = asyncio.Event()
            release = asyncio.Event()

            async def held(request):
                out.set()
                await release.wait()

            client = NetClient("127.0.0.1", 1)
            scripted(client.link, table, held)
            try:
                impatient = asyncio.ensure_future(
                    asyncio.wait_for(client.dist(3, 9), timeout=0.01))
                patient = asyncio.ensure_future(client.dist(9, 3))
                await out.wait()
                with pytest.raises(asyncio.TimeoutError):
                    await impatient
                release.set()
                return (await asyncio.wait_for(patient, timeout=10.0),
                        client.link.requests)
            finally:
                await client.aclose()

        value, requests = asyncio.run(drive())
        assert value == table[3, 9]
        assert requests == 1

    @pytest.mark.parametrize("num_workers", FLEET_SIZES)
    def test_artifact_pin_forces_one_table(self, manifest, reference,
                                           num_workers):
        async def drive():
            async with running_fleet(manifest, num_workers) as (frontend, _):
                name = build_registry([str(manifest)]).entries()[0].name
                async with NetClient(*frontend.address) as client:
                    pinned = await client.batch([(0, 5)], artifact=name)
                    sent = [link.requests for link in frontend.links()]
                    with pytest.raises(RoutingError):
                        await client.batch([(0, 5)], artifact=name,
                                           multiplicative=0.1)
                    assert [link.requests
                            for link in frontend.links()] == sent
                return pinned

        assert asyncio.run(drive())[0] == pytest.approx(
            float(reference.batch([(0, 5)])[0]))


class TestFramePath:
    """frame -> partition into per-owner runs -> workers -> frame."""

    @pytest.mark.parametrize("num_links", FLEET_SIZES)
    def test_one_owner_frame_goes_out_and_comes_back_as_it_is(
            self, manifest, table, num_links):
        """No split: the sub-batch is the request's own columns in order,
        and what the worker answered is what the caller gets."""
        frontend = scripted_frontend(manifest, table, num_links)
        sent, answers = [], []

        async def answer(sub_batch):
            sent.append(sub_batch)
            answers.append(table[sub_batch.u, sub_batch.v])
            return answers[-1]

        for link in frontend.links():
            scripted(link, table, answer)
        request = frame_request(shard_frame(0, 30)[::-1])  # rows descending

        got = asyncio.run(frontend.handle_request(request))
        assert len(sent) == 1 and got is answers[0]
        assert sent[0].u.tolist() == request.u.tolist()
        assert sent[0].v.tolist() == request.v.tolist()
        assert [link.requests for link in frontend.links()] == \
            [1] + [0] * (num_links - 1)

    def test_traced_request_carries_route_and_fanout_spans(self, artifacts):
        async def drive(num_workers, pairs):
            async with running_fleet(artifacts["4-shard"],
                                     num_workers) as (frontend, _):
                trace = TraceContext("ab" * 8, "frontend")
                await frontend.handle_request(frame_request(pairs),
                                              trace=trace)
                return [span.name for span in trace.spans]

        for num_workers in FLEET_SIZES:
            for pairs in (shard_frame(0), pairs_covering_all_shards(40)):
                names = asyncio.run(drive(num_workers, pairs))
                assert names.count("frontend.route") == 1
                assert names.count("frontend.fanout") == 1
                assert {"worker.queue", "worker.gather"} <= set(names)


class TestAttemptBudget:
    """``max_attempts`` counts sends; a link passed over costs nothing."""

    def test_counts_match_a_dead_worker_exactly(self, manifest, table):
        frontend = scripted_frontend(manifest, table, 2, eject_after=2)
        dead = frontend.links()[1]

        async def refuse(request):
            raise WorkerUnavailable("connection refused")

        scripted(dead, table, refuse)
        frame = shard_frame(1)  # shard 1 of 4 belongs to link 1 of 2

        async def drive():
            counts = []
            for _ in range(3):
                got = await frontend.handle_request(frame_request(frame))
                assert np.array_equal(got, table[frame[:, 0], frame[:, 1]])
                counts.append((frontend.retries, frontend.failovers,
                               frontend.ejections))
            return counts

        # Two failures open the breaker; the third frame never tries it.
        assert asyncio.run(drive()) == [(1, 1, 0), (2, 2, 1), (2, 2, 1)]
        assert dead.breaker.consecutive == 2
        assert len(frontend.healthy_links()) == 1

    def test_links_that_opened_since_do_not_spend_attempts(self, manifest,
                                                           table):
        """Three links, two opened by other traffic while the first attempt
        was out: the drop on the survivor is still retried on it."""
        frontend = scripted_frontend(manifest, table, 3, max_attempts=3)
        first, second, third = frontend.links()
        dropped = []

        async def drop_once(request):
            if not dropped:
                dropped.append(request)
                second.breaker.force_open()
                third.breaker.force_open()
                raise WorkerUnavailable("connection reset")

        scripted(first, table, drop_once)
        frame = shard_frame(0)  # owner: link 0 of 3

        got = asyncio.run(frontend.handle_request(frame_request(frame)))
        assert np.array_equal(got, table[frame[:, 0], frame[:, 1]])
        assert first.requests == 2 and second.requests == third.requests == 0
        assert (frontend.retries, frontend.failovers) == (1, 0)

    def test_budget_is_still_a_bound(self, manifest, table):
        frontend = scripted_frontend(manifest, table, 3, max_attempts=3,
                                     eject_after=99)

        async def refuse(request):
            raise WorkerUnavailable("connection refused")

        for link in frontend.links():
            scripted(link, table, refuse)
        with pytest.raises(NetError, match=r"failed after 3 attempt\(s\)"):
            asyncio.run(frontend.handle_request(frame_request(shard_frame(0))))
        assert [link.requests for link in frontend.links()] == [1, 1, 1]
        assert (frontend.retries, frontend.failovers) == (2, 2)

    def test_miscounted_reply_is_a_failed_attempt(self, manifest, table):
        """A worker that answers one distance short has not answered: the
        breaker is charged and the sub-batch fails over — whether the frame
        had one owner (the short array used to reach the client) or several
        (it used to die in the scatter as a ValueError, reported as
        bad-nodes).  With nobody left to ask it is a NetError, and a
        ``NetClient`` talking to such a worker directly raises the same
        typed error instead of returning the short array."""
        async def one_short(request):
            return table[request.u, request.v][:-1]

        for pairs, sends in ((shard_frame(0), [1, 1]),
                             (np.asarray(pairs_covering_all_shards(40)),
                              [1, 2])):
            frontend = scripted_frontend(manifest, table, 2, hedge_ratio=0.0)
            scripted(frontend.links()[0], table, one_short)
            got = asyncio.run(frontend.handle_request(frame_request(pairs)))
            assert np.array_equal(got, table[pairs[:, 0], pairs[:, 1]])
            assert [link.requests for link in frontend.links()] == sends
            assert [link.breaker.consecutive
                    for link in frontend.links()] == [1, 0]
            assert (frontend.retries, frontend.failovers) == (1, 1)

        frontend = scripted_frontend(manifest, table, 2, hedge_ratio=0.0)
        for link in frontend.links():
            scripted(link, table, one_short)
        with pytest.raises(NetError, match=r"answered 7 distance\(s\) to a "
                                           r"request of 8 pair"):
            asyncio.run(frontend.handle_request(frame_request(shard_frame(0))))

        async def direct(**client_options):
            client = NetClient("127.0.0.1", 1, **client_options)
            scripted(client.link, table, one_short)
            try:
                for ask in (lambda: client.batch(shard_frame(0)),
                            lambda: client.dist(3, 40)):
                    with pytest.raises(MiscountedReply) as caught:
                        await ask()
                    assert caught.value.code == ERR_BAD_FRAME
            finally:
                await client.aclose()

        asyncio.run(direct())                   # dist() through the coalescer
        asyncio.run(direct(coalesce_window=0))  # dist() as a frame of one

    def test_no_admitting_link_says_so(self, artifacts, table):
        """Three runs; every breaker opens while the first is out.  The
        other two were never sent, and their error says that instead of
        ``failed after 3 attempt(s): None``."""
        frontend = scripted_frontend(artifacts["1-shard"], table, 3)

        async def open_everything(request):
            for link in frontend.links():
                link.breaker.force_open()
            await asyncio.sleep(0)  # let the sibling sub-batches start

        scripted(frontend.links()[0], table, open_everything)
        with pytest.raises(NetError, match="no worker admits") as caught:
            asyncio.run(frontend.handle_request(
                frame_request(pairs_covering_all_shards(30))))
        assert "None" not in str(caught.value)
        assert [link.requests for link in frontend.links()] == [1, 0, 0]


class CountingRecorder(LatencyRecorder):
    """Counts the reads that sort the window."""

    __slots__ = ("reads",)

    def __init__(self, window):
        super().__init__(window)
        self.reads = 0

    def percentile(self, p):
        self.reads += 1
        return super().percentile(p)


class TestHedging:
    def test_slow_primary_is_hedged_once_and_the_budget_caps_it(
            self, manifest, table):
        frontend = scripted_frontend(
            manifest, table, 2, hedge_ratio=0.2, hedge_min_delay=0.002,
            request_timeout=5.0)
        primary, other = frontend.links()
        frame = shard_frame(0)  # owner: link 0 of 2
        want = table[frame[:, 0], frame[:, 1]]

        async def drive():
            for _ in range(4):  # warm the latency window: four sub-batches
                await frontend.handle_request(frame_request(frame))
            assert frontend.hedges == 0 and other.requests == 0
            delay = frontend._hedge_delay()
            assert delay == 0.002  # the floor: scripted links answer in us

            stall = asyncio.Event()

            async def hold(request):
                await stall.wait()

            scripted(primary, table, hold)
            started = asyncio.get_running_loop().time()
            got = await frontend.handle_request(frame_request(frame))
            waited = asyncio.get_running_loop().time() - started
            assert np.array_equal(got, want)
            assert (frontend.hedges, frontend.hedge_wins) == (1, 1)
            assert other.requests == 1 and waited >= delay
            assert frontend.retries == 0  # a hedge is not a retry

            # 1 hedge in 5 sub-batches is the whole 20% budget: the next
            # slow primary is waited for, not hedged.
            asyncio.get_running_loop().call_later(0.02, stall.set)
            got = await frontend.handle_request(frame_request(frame))
            assert np.array_equal(got, want)
            assert (frontend.hedges, frontend.hedge_wins) == (1, 1)
            assert other.requests == 1

        asyncio.run(drive())

    def test_primary_that_answers_first_wins_and_disarms_the_hedge(
            self, manifest, table):
        frontend = scripted_frontend(
            manifest, table, 2, hedge_ratio=1.0, hedge_min_delay=0.05)
        frame = shard_frame(0)

        async def drive():
            for _ in range(50):
                await frontend.handle_request(frame_request(frame))
            await asyncio.sleep(0.06)  # an armed timer would fire by now

        asyncio.run(drive())
        assert (frontend.hedges, frontend.hedge_wins) == (0, 0)
        assert [link.requests for link in frontend.links()] == [50, 0]

    def test_failed_primary_with_a_hedge_out_waits_for_the_hedge(
            self, manifest, table):
        frontend = scripted_frontend(
            manifest, table, 2, hedge_ratio=1.0, hedge_min_delay=0.002)
        primary, other = frontend.links()
        frame = shard_frame(0)

        async def drive():
            for _ in range(4):
                await frontend.handle_request(frame_request(frame))
            hedge_sent = asyncio.Event()

            async def fail_after_the_hedge(request):
                await hedge_sent.wait()
                raise WorkerUnavailable("connection reset")

            async def slow_answer(request):
                hedge_sent.set()
                await asyncio.sleep(0.005)

            scripted(primary, table, fail_after_the_hedge)
            scripted(other, table, slow_answer)
            got = await frontend.handle_request(frame_request(frame))
            assert np.array_equal(got, table[frame[:, 0], frame[:, 1]])

        asyncio.run(drive())
        assert (frontend.hedges, frontend.hedge_wins) == (1, 1)
        assert frontend.retries == 0 and primary.breaker.consecutive == 1

    def test_hedge_delay_is_not_recomputed_per_sub_batch(self, manifest,
                                                         table):
        frontend = scripted_frontend(manifest, table, 2)
        recorder = CountingRecorder(window=512)
        frontend._attempt_latency = recorder
        frames_sent = 5 * HEDGE_DELAY_REFRESH

        async def drive():
            for _ in range(frames_sent):  # two sub-batches each
                await frontend.handle_request(
                    frame_request(pairs_covering_all_shards(64)))

        asyncio.run(drive())
        assert recorder.count == 2 * frames_sent
        # Every attempt while the window is cold, then once per 64.
        assert recorder.reads <= 2 * frames_sent / HEDGE_DELAY_REFRESH + 8
        # The memo still follows the window: P95 of us-fast links, floored.
        assert frontend._hedge_delay() == frontend.hedge_min_delay


class StallingWorker:
    """A socket speaking the frame protocol that answers requests only
    once ``release`` is set (pings are answered at once)."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.release = asyncio.Event()
        self.answered = asyncio.Event()
        self.seen = 0

    async def __aenter__(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.address = self.server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc_info):
        self.server.close()
        await self.server.wait_closed()

    async def _serve(self, reader, writer):
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                ftype, req_id, payload = frame
                if ftype == MSG_PING:
                    writer.write(encode_frame(MSG_PONG, req_id))
                    continue
                self.seen += 1
                request = unpack_request(payload, req_id)
                await self.release.wait()
                writer.write(encode_frame(MSG_RESPONSE, req_id, pack_response(
                    self.table[request.u, request.v])))
                await writer.drain()
                self.answered.set()
        finally:
            writer.close()


class TestLinkTimeout:
    def test_timeout_raises_and_the_late_reply_is_dropped(self, table):
        async def drive():
            async with StallingWorker(table) as worker:
                link = WorkerLink(*worker.address, name="stalled")
                try:
                    with pytest.raises(asyncio.TimeoutError):
                        await link.request([(0, 1)], timeout=0.05)
                    assert worker.seen == 1
                    assert not link._pending
                    assert link.connected  # a timeout is not a dead link
                    worker.release.set()
                    await worker.answered.wait()  # the late reply is out
                    assert await link.ping(timeout=2.0)  # ...and was dropped
                    assert not link._pending
                    # Released, the worker answers the next request in time.
                    got = await link.request([(2, 3)], timeout=2.0)
                    assert got.tolist() == [table[2, 3]]
                finally:
                    await link.close()

        asyncio.run(drive())

    def test_frontend_honours_request_timeout_and_retries_elsewhere(
            self, manifest, table):
        async def drive():
            good = make_worker(manifest)
            await good.server.__aenter__()
            await good.start()
            try:
                async with StallingWorker(table) as stalled:
                    frontend = Frontend(
                        [str(manifest)], [stalled.address, good.address],
                        request_timeout=0.05, hedge_ratio=0.0)
                    await frontend.start()
                    try:
                        frame = shard_frame(0)  # owner: the stalled link
                        started = asyncio.get_running_loop().time()
                        async with NetClient(*frontend.address) as client:
                            got = await client.batch(frame)
                        waited = asyncio.get_running_loop().time() - started
                        assert np.array_equal(
                            got, table[frame[:, 0], frame[:, 1]])
                        assert 0.05 <= waited < 2.0
                        link = frontend.links()[0]
                        assert (frontend.retries, frontend.failovers) == (1, 1)
                        assert link.breaker.consecutive == 1
                        assert not link._pending
                        stalled.release.set()
                        await stalled.answered.wait()
                        assert await link.ping(timeout=2.0)
                        assert not link._pending
                    finally:
                        await frontend.stop()
            finally:
                await good.stop()
                await good.server.__aexit__(None, None, None)

        asyncio.run(drive())


def assert_stats_read_the_published_series(owner, snapshot, label=""):
    """Every ``stats()`` key is the snapshot value of its series, and every
    series of the owner's table has its key."""
    stats = owner.stats()
    for name, kind, _help, _read in type(owner).SERIES:
        short = name.split("_", 2)[2].removesuffix("_total")
        assert stats.pop(short) == snapshot[kind + "s"][name]["values"][label], \
            name
    assert not stats, f"stats() keys with no series: {sorted(stats)}"


class TestFrontendObservability:
    def test_stats_and_health_include_fleet_state(self, manifest):
        async def drive():
            frontend, workers = await start_fleet(manifest)
            try:
                async with NetClient(*frontend.address) as client:
                    await client.batch(pairs_covering_all_shards(30))
                return frontend.stats(), frontend.health(), frontend.links()
            finally:
                await stop_fleet(frontend, workers)

        stats, health, links = asyncio.run(drive())
        assert health["workers"] == 2
        assert health["healthy_workers"] == stats["healthy_workers"] == 2
        assert all(link.requests > 0 for link in links)

    def test_stats_are_flat_reads_of_the_published_series(self, manifest):
        """The drift guard.  The three tiers that keep a ``stats()`` —
        frontend, server, engine — each read it off the one series table
        they publish, so after real traffic through both server doors the
        two surfaces agree key for key."""
        get_registry().reset()  # series sum every live instance: keep one

        async def drive():
            async with running_fleet(manifest, 1) as (frontend, workers):
                async with NetClient(*frontend.address) as client:
                    await client.batch(pairs_covering_all_shards(40))
                    await client.dist(3, 40)
                server = workers[0].server
                await server.dist(1, 9)
                [engine] = server._router.registry.loaded_engines().values()
                snapshot = get_registry().snapshot()
                for owner, label in ((frontend, ""), (server, ""),
                                     (engine, f'strategy="{engine.strategy}"')):
                    assert_stats_read_the_published_series(owner, snapshot,
                                                           label)
                return server.stats(), engine.stats()

        served, answered = asyncio.run(drive())
        assert served["served"] == 42 and answered["queries"] >= 42

    def test_reading_stats_leaves_the_hedge_delay_alone(self, manifest,
                                                        table):
        """``stats()`` is a read: it neither re-sorts the attempt window
        nor moves the next re-read of the hedge delay."""
        frontend = scripted_frontend(manifest, table, 2)
        memo = (frontend._hedge_delay_due, frontend._hedge_p95_us)
        frontend.stats()
        assert (frontend._hedge_delay_due, frontend._hedge_p95_us) == memo

        async def drive():
            for _ in range(3):
                await frontend.handle_request(frame_request(shard_frame(0)))

        asyncio.run(drive())
        frontend._attempt_latency.record(10**6)  # a re-read is now due
        memo = (frontend._hedge_delay_due, frontend._hedge_p95_us)
        frontend.stats()
        assert (frontend._hedge_delay_due, frontend._hedge_p95_us) == memo
