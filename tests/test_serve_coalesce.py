"""The one point -> frame coalescer, driven with a scripted ``send``.

No sockets, no engine: ``send`` records what it was given and answers
from a script, so every property below is asserted on the frames that
left (what, in which order), never on how long anything took: a window
here is either a millisecond, or five seconds that must *not* be waited
out (``run`` gives a scenario ten).  The spacing rule itself is stepped
under :class:`SteppedTime` — a clock the test moves and a ``sleep`` that
logs what the flusher asked for — through the ``_clock``/``_sleep`` seam.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


async def turns(count=5):
    """Let every task that can run, run: ``count`` turns of the loop."""
    for _ in range(count):
        await asyncio.sleep(0)


class SteppedTime:
    """The coalescer's clock and sleep, in the test's hands.

    ``sleep`` logs the seconds asked for and holds the sleeper until
    :meth:`advance` moves ``now`` to its deadline.
    """

    def __init__(self, coalescer, now=100.0):
        self.now = now
        self.slept = []
        self._sleepers = []
        coalescer._clock = lambda: self.now
        coalescer._sleep = self.sleep

    async def sleep(self, seconds):
        self.slept.append(seconds)
        woken = asyncio.get_running_loop().create_future()
        self._sleepers.append((self.now + seconds, woken))
        await woken

    async def advance(self, seconds):
        """Move the clock, stopping at every deadline on the way so each
        sleeper resumes at the instant it asked for."""
        target = self.now + seconds
        while True:
            due = [entry for entry in self._sleepers if entry[0] <= target]
            if not due:
                break
            entry = min(due, key=lambda sleeper: sleeper[0])
            self._sleepers.remove(entry)
            self.now = max(self.now, entry[0])
            entry[1].set_result(None)
            await turns()
        self.now = target


def test_duplicate_keys_share_one_sent_key():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 0.001, 64, "t")
        first, new_first = coalescer.park("a", 7)
        second, new_second = coalescer.park("a", 7)
        other, new_other = coalescer.park("a", 8)
        assert (new_first, new_second, new_other) == (True, False, True)
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
        first = coalescer.park("a", 1)[0]  # first key: leaves at once
        await out.wait()  # frame [1] is out, its send not yet back
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


def test_flush_does_not_wait_for_the_window():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 5.0, 64, "t")
        assert await coalescer.park("a", 1)[0] == 10
        parked = coalescer.park("a", 2)[0]  # inside the window of frame [1]
        await asyncio.sleep(0)  # the flusher is now asleep in its window
        assert not parked.done()
        await coalescer.flush()  # ... which flush() does not wait out
        assert parked.done() and parked.result() == 20
        assert send.frames == [("a", [1]), ("a", [2])]
        await coalescer.aclose(RuntimeError("closing"))

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


def test_short_or_long_reply_fails_its_whole_chunk_and_the_loop_lives_on():
    """A ``send`` that answers another number of values than it was given
    keys settles every caller of that chunk with an error naming both
    counts — nobody is left pending, nothing is silently cut."""
    async def scenario():
        async def send(bucket, keys):
            values = [key * 10 for key in keys]
            if 1 in keys:
                return values[:-1]
            if 4 in keys:
                return values + [0.0]
            return values

        coalescer = Coalescer(send, 0.001, 3, "t")
        futures = [coalescer.park("a", key)[0] for key in range(1, 8)]
        futures.append(coalescer.park("a", 3)[0])  # a second caller of 3
        done, pending = await asyncio.wait(futures, timeout=5.0)
        assert not pending  # at the parent the tail of [1, 2, 3] hangs
        short, long = "2 values for a frame of 3", "4 values for a frame of 3"
        for future, count in zip(futures, [short] * 3 + [long] * 3
                                 + [None, short]):
            if count is None:
                assert future.result() == 70
            else:
                assert isinstance(future.exception(), RuntimeError)
                assert count in str(future.exception())
        assert await coalescer.park("a", 9)[0] == 90
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


@pytest.mark.parametrize("gone", ["first", "second"])
@pytest.mark.parametrize("while_out", [False, True])
def test_cancelled_caller_takes_down_only_itself(gone, while_out):
    """Two callers of one key, one gives up (before the frame leaves, or
    while it is out): the key is still sent, once, and the other caller
    gets its value — not a ``CancelledError`` meant for somebody else."""
    async def scenario():
        frames = []
        out = asyncio.Event()
        release = asyncio.Event()

        async def send(bucket, keys):
            frames.append(list(keys))
            out.set()
            await release.wait()
            return [key * 10 for key in keys]

        coalescer = Coalescer(send, 0.001, 64, "t")

        async def caller():
            return await coalescer.park("a", 7)[0]

        callers = {"first": asyncio.ensure_future(caller()),
                   "second": asyncio.ensure_future(caller())}
        await asyncio.sleep(0)  # both have parked; the flusher has not run
        assert coalescer.parked == 1 and not frames
        if while_out:
            await out.wait()
        quitter = callers.pop(gone)
        quitter.cancel()
        release.set()
        (stayer,) = callers.values()
        assert await stayer == 70
        assert quitter.cancelled()
        assert frames == [[7]]
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


# ---------------------------------------------------------------------------
# The spacing rule: ``window`` is counted from the previous frame's send.
# ---------------------------------------------------------------------------

def test_first_key_of_a_quiet_period_leaves_without_entering_the_sleep():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 5.0, 64, "t")
        time = SteppedTime(coalescer)
        future = coalescer.park("a", 1)[0]
        await asyncio.sleep(0)  # one turn of the loop: the flusher's
        assert future.done() and future.result() == 10
        assert send.frames == [("a", [1])]
        assert time.slept == []
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


def test_a_key_sleeps_what_is_left_of_the_window_since_the_previous_send():
    async def scenario():
        send = Recorder()
        coalescer = Coalescer(send, 5.0, 64, "t")
        time = SteppedTime(coalescer)
        assert await coalescer.park("a", 1)[0] == 10  # sent at 100.0
        await time.advance(1.25)
        soon = coalescer.park("a", 2)[0]
        joined = coalescer.park("a", 3)[0]  # company: shares the wait
        await turns()
        assert time.slept == [3.75] and not soon.done()
        await time.advance(3.75)  # sent at 105: one window after frame [1]
        assert (soon.result(), joined.result()) == (20, 30)
        await time.advance(5.0)  # the previous send is a window old: no sleep
        late = coalescer.park("a", 4)[0]
        await asyncio.sleep(0)
        assert late.done() and late.result() == 40
        assert time.slept == [3.75]
        assert send.frames == [("a", [1]), ("a", [2, 3]), ("a", [4])]
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


def test_callers_woken_by_one_reply_leave_in_one_frame():
    """The lockstep case ``wire-point`` is made of: 64 closed-loop callers
    whose round trip outlasts the window.  Every reply wakes all 64, all
    64 park again before the flusher's turn, and each round is **one**
    frame of 64 with the timer never armed — the loop is clocked by
    replies."""
    rounds, callers = 4, 64

    async def scenario():
        frames = []

        async def send(bucket, keys):
            frames.append(list(keys))
            await asyncio.sleep(0)  # the wire: the reply lands a turn later
            time.now += 5.0  # ... one window after the frame left
            return [key * 10 for key in keys]

        coalescer = Coalescer(send, 5.0, 8192, "t")
        time = SteppedTime(coalescer)

        async def caller(index):
            for round_ in range(rounds):
                key = round_ * callers + index
                assert await coalescer.park("a", key)[0] == key * 10

        await asyncio.gather(*(caller(index) for index in range(callers)))
        assert frames == [list(range(round_ * callers, (round_ + 1) * callers))
                          for round_ in range(rounds)]
        assert time.slept == []
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)


WINDOW = 1.0
#: Clock steps are eighths of the window: every sum is exact in binary.
TICK = WINDOW / 8

SCRIPTS = st.lists(st.one_of(
    st.tuples(st.just("park"), st.integers(0, 4)),
    st.tuples(st.just("advance"), st.integers(1, 12)),
    st.tuples(st.just("land"), st.just(0)),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(script=SCRIPTS, instant=st.booleans())
# The frame sent when a frame lands restarts the spacing too: key 2, parked
# after both have landed, waits a window from the *second* frame's send.
@example(script=[("park", 0), ("park", 1), ("advance", 2), ("land", 0),
                 ("land", 0), ("park", 2), ("advance", 12)], instant=False)
def test_spacing_property_over_random_park_advance_land_scripts(script,
                                                                instant):
    """Whatever the interleaving of callers, clock and replies (``instant``:
    a ``send`` that never suspends, the in-process server's):

    * every parked key is sent and answered, duplicates once per frame;
    * two sends are closer than ``window`` only when every key of the
      later one parked while the earlier frame was out;
    * no key is held past ``max(parked, previous_send + window)`` — or,
      parked while a frame was out, past that frame's landing.
    """
    async def scenario():
        loop = asyncio.get_running_loop()
        sends = []  # {"sent", "keys", "landed"} per frame, in order
        out = []  # the gate of the frame that is out, if one is
        overlapped = []

        async def send(bucket, keys):
            frame = {"sent": time.now, "keys": list(keys), "landed": None}
            sends.append(frame)
            if not instant:
                overlapped.extend(out)
                gate = loop.create_future()
                out.append(gate)
                await gate
            frame["landed"] = time.now
            return [key * 10 for key in keys]

        def land():
            if out:
                out.pop().set_result(None)

        coalescer = Coalescer(send, WINDOW, 64, "t")
        time = SteppedTime(coalescer, now=0.0)
        parks = []  # (key, future, new, parked_at, index of the frame out)
        for op, arg in script:
            if op == "park":
                future, new = coalescer.park("a", arg)
                parks.append((arg, future, new, time.now,
                              len(sends) - 1 if out else None))
            elif op == "advance":
                await time.advance(arg * TICK)
            else:
                land()
            await turns()
        for _ in range(3):  # the frame out, the one behind it, a sleeper
            land()
            await turns()
            await time.advance(WINDOW)

        assert not overlapped  # one frame out per coalescer
        assert all(future.done() and future.result() == key * 10
                   for key, future, *_ in parks)
        assert all(len(set(frame["keys"])) == len(frame["keys"])
                   for frame in sends)
        carried = {}  # key -> indices of the frames that carried it
        for index, frame in enumerate(sends):
            for key in frame["keys"]:
                carried.setdefault(key, []).append(index)
        new_parks = [park for park in parks if park[2]]
        assert sum(map(len, carried.values())) == len(new_parks)
        behind_a_frame_out = [True] * len(sends)
        for key, _future, _new, parked_at, frame_out in new_parks:
            index = carried[key].pop(0)  # FIFO: nth park leaves nth
            sent = sends[index]["sent"]
            if frame_out is None:
                behind_a_frame_out[index] = False
                previous = sends[index - 1]["sent"] if index else -math.inf
                assert sent == max(parked_at, previous + WINDOW)
            else:
                assert index == frame_out + 1
                assert sent == sends[frame_out]["landed"]
        for index in range(1, len(sends)):
            gap = sends[index]["sent"] - sends[index - 1]["sent"]
            assert gap >= WINDOW or behind_a_frame_out[index]
        await coalescer.aclose(RuntimeError("closing"))

    run(scenario)
