"""The one point -> frame coalescer, driven with a scripted ``send``.

No sockets, no engine: ``send`` records what it was given and answers
from a script, so every property below is asserted on the frames that
left (what, in which order), never on how long anything took: a window
here is either a millisecond, or five seconds that must *not* be waited
out (``run`` gives a scenario ten).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.coalesce import Coalescer


class Recorder:
    """A ``send`` that logs ``(bucket, keys)`` and answers ``key * 10``."""

    def __init__(self):
        self.frames = []

    async def __call__(self, bucket, keys):
        self.frames.append((bucket, list(keys)))
        return [key * 10 for key in keys]


def run(scenario):
    return asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))


def test_duplicate_keys_share_one_future_and_one_sent_key():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 0.001, 64, "t")
        first, new_first = coalescer.park("a", 7)
        second, new_second = coalescer.park("a", 7)
        other, new_other = coalescer.park("a", 8)
        assert (new_first, new_second, new_other) == (True, False, True)
        assert second is first and other is not first
        assert coalescer.parked == 2
        assert await asyncio.gather(first, second, other) == [70, 70, 80]
        assert send.frames == [("a", [7, 8])]
        assert coalescer.parked == 0
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


def test_buckets_never_mix_in_a_frame():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 0.001, 64, "t")
        futures = [coalescer.park(bucket, key)[0]
                   for bucket, key in (("a", 1), ("b", 1), ("a", 2), ("b", 3))]
        assert await asyncio.gather(*futures) == [10, 10, 20, 30]
        # The same key in two buckets is two futures and two sent keys.
        assert futures[0] is not futures[1]
        assert send.frames == [("a", [1, 2]), ("b", [1, 3])]
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


def test_max_batch_chunks_a_flush():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 0.001, 3, "t")
        futures = [coalescer.park("a", key)[0] for key in range(8)]
        assert await asyncio.gather(*futures) == [key * 10 for key in range(8)]
        assert send.frames == [("a", [0, 1, 2]), ("a", [3, 4, 5]),
                               ("a", [6, 7])]
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


def test_failing_send_fails_exactly_its_chunk_and_the_loop_lives_on():
    async def scenario():
        frames = []

        async def send(bucket, keys):
            frames.append(list(keys))
            if 2 in keys:
                raise ConnectionError("frame lost")
            return [key * 10 for key in keys]

        coalescer = Coalescer(send, 0.001, 2, "t")
        futures = [coalescer.park("a", key)[0] for key in range(6)]
        results = await asyncio.gather(*futures, return_exceptions=True)
        assert frames == [[0, 1], [2, 3], [4, 5]]
        assert results[:2] == [0, 10] and results[4:] == [40, 50]
        assert all(isinstance(result, ConnectionError)
                   and str(result) == "frame lost" for result in results[2:4])
        # The flusher survived: a later key is still answered.
        assert await coalescer.park("a", 9)[0] == 90
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


def test_keys_parked_while_a_frame_is_out_leave_when_it_lands():
    """No second window: with a five-second window, the late keys' frame
    follows the first one's landing directly (``wait_for`` in ``run``
    would expire otherwise), and in that order."""
    async def scenario():
        events = []
        out = asyncio.Event()
        release = asyncio.Event()

        async def send(bucket, keys):
            events.append(("sent", list(keys)))
            if keys == [1]:
                out.set()
                await release.wait()
            events.append(("landed", list(keys)))
            return [key * 10 for key in keys]

        coalescer = Coalescer(send, 5.0, 64, "t")
        coalescer.draining = True  # the first window is not under test
        first = coalescer.park("a", 1)[0]
        await out.wait()  # frame [1] is out, its send not yet back
        coalescer.draining = False
        late = [coalescer.park("a", key)[0] for key in (2, 3)]
        again = coalescer.park("a", 1)[0]  # same key as the frame in flight
        assert again is not first
        assert events == [("sent", [1])]
        release.set()
        assert await asyncio.gather(first, *late, again) == [10, 20, 30, 10]
        assert events == [("sent", [1]), ("landed", [1]),
                          ("sent", [2, 3, 1]), ("landed", [2, 3, 1])]
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


def test_draining_skips_the_window_and_flush_does_not_wait_for_it():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 5.0, 64, "t")
        parked = coalescer.park("a", 1)[0]
        await asyncio.sleep(0)  # the flusher is now asleep in its window
        await coalescer.flush()  # ... which flush() does not wait out
        assert parked.done() and parked.result() == 10

        draining = Coalescer(send, 5.0, 64, "t")
        draining.draining = True
        assert await draining.park("a", 2)[0] == 20
        assert send.frames == [("a", [1]), ("a", [2])]
        await coalescer.aclose(RuntimeError("closing"))
        await draining.aclose(RuntimeError("closing"))

    run(scenario)


def test_close_fails_parked_and_in_flight_callers_with_the_owners_error():
    """The stranded-caller fix: a frame that is out when the owner closes
    has its ``send`` cancelled, and its callers — like the ones still
    parked — get the closing error instead of waiting forever."""
    async def scenario():
        out = asyncio.Event()
        cancelled = []

        async def send(bucket, keys):
            out.set()
            try:
                await asyncio.Event().wait()  # a peer that never replies
            except asyncio.CancelledError:
                cancelled.append(list(keys))
                raise

        coalescer = Coalescer(send, 0.001, 2, "t")
        # Three keys, max_batch 2: [1, 2] goes out, [3] is swapped out but
        # unsent, and 4 parks while the frame is out.
        futures = [coalescer.park("a", key)[0] for key in (1, 2, 3)]
        await out.wait()
        futures.append(coalescer.park("b", 4)[0])
        error = ConnectionError("owner closing")
        await coalescer.aclose(error)
        done, pending = await asyncio.wait(futures, timeout=0.2)
        assert not pending
        assert all(future.exception() is error for future in futures)
        assert cancelled == [[1, 2]]
        assert coalescer.parked == 0
        names = {task.get_name() for task in asyncio.all_tasks()}
        assert "t" not in names  # the flusher is gone

    run(scenario)


def test_flusher_is_created_by_the_first_key_not_before():
    async def scenario():
        coalescer = Coalescer(Recorder(), 0.001, 64, "lazy-flusher")

        def flushers():
            return [task for task in asyncio.all_tasks()
                    if task.get_name() == "lazy-flusher"]

        assert flushers() == []
        future = coalescer.park("a", 1)[0]
        assert len(flushers()) == 1
        assert await future == 10
        coalescer.park("a", 2)
        assert len(flushers()) == 1  # one flusher, however many keys
        await coalescer.aclose(RuntimeError("closing"))
        assert flushers() == []

    run(scenario)


def test_cancelled_caller_does_not_break_the_frame():
    """A caller that gives up cancels its future; the frame still goes out
    and the other keys are answered."""
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 0.001, 64, "t")
        gone = coalescer.park("a", 1)[0]
        kept = coalescer.park("a", 2)[0]
        gone.cancel()
        assert await kept == 20
        assert send.frames == [("a", [1, 2])]
        with pytest.raises(asyncio.CancelledError):
            await gone
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)
