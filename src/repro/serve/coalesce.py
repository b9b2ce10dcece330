"""Point -> frame coalescing: many awaited keys, few sends.

The congested clique charges per round, not per message, so every tool in
the source paper first packs many small messages into few full ones.  The
serving analogue is packing concurrent single-pair ``dist()`` calls into
one batched frame, and :class:`Coalescer` is the one place it is written.
Both sides of the wire hold one: :class:`~repro.serve.server.DistanceServer`
(a frame is one screened engine gather) and
:class:`~repro.net.frontend.NetClient` (a frame is one wire request).

A caller *parks* a key in a *bucket* — whatever must be equal for two keys
to share a frame: the routed artifact for the server, the stretch budget
for the client — and awaits the future it gets back.  Every caller has its
own future (one that gives up cancels nobody else's answer); concurrent
callers of one key in one bucket share one sent key.  A single flusher
task, created with the first key, swaps the pending map out and awaits
``send(bucket, keys)`` once per ``max_batch`` chunk.

``window`` is the **minimum spacing between two frames**, counted from the
moment the previous frame was handed to ``send`` — a round starts when the
previous round's messages have landed, not on a wall clock.  So a parked
key waits for company only when company is coming: (1) after a quiet
period — the previous send is at least a window old, which is every round
of a closed loop whose round trip outlasts the window — it leaves on the
flusher's next turn, with no timer; (2) sooner after a send than that, it
waits out the remainder, ``previous_send + window - now``, so a trickle of
callers (or a ``send`` that returns in microseconds) still gets at most
one frame per window; (3) parked while a frame is out, it leaves when that
frame lands, with no window at all.  The flusher needs no ``sleep(0)`` to
see the callers a reply wakes: settling their futures queues them on the
loop *before* the first of them to park again can queue the flusher, so
by the time it runs they have all parked.
"""

from __future__ import annotations

import asyncio
import math
from typing import (
    Awaitable,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: ``send(bucket, keys)`` answers one frame: one value per key, in order.
Send = Callable[[Hashable, List[Hashable]], Awaitable[Sequence[float]]]
#: bucket -> key -> the futures of that key's callers, first caller first.
_Parked = Dict[Hashable, Dict[Hashable, List[asyncio.Future]]]


def _fail(callers: Iterable[List[asyncio.Future]], error: Exception) -> None:
    for futures in callers:
        for future in futures:
            if not future.done():
                future.set_exception(error)


class Coalescer:
    """Park keys, flush them in frames through ``send``.

    ``window`` is the minimum spacing between two frames, counted from the
    previous frame's hand-over to ``send``: a key parked after a quiet
    period leaves on the flusher's next turn, one parked sooner waits out
    the remainder of the window, one parked while a frame is out leaves
    when it lands (the module docstring has the why).

    ``send`` failing (any ``Exception``), or answering another number of
    values than it was given keys, fails exactly the futures of that chunk;
    the flusher lives on.  ``name`` names the flusher task.  The owner
    stops parking before it calls :meth:`aclose`.
    """

    # The flusher's view of time, as attributes so the spacing rule can be
    # stepped under a fake clock (a test seam, not a knob).
    _sleep = staticmethod(asyncio.sleep)

    @staticmethod
    def _clock() -> float:
        return asyncio.get_running_loop().time()

    def __init__(self, send: Send, window: float, max_batch: int, name: str):
        self._send = send
        self.window = window
        self.max_batch = max_batch
        self._name = name
        self._pending: _Parked = {}
        #: Maps swapped out by a flush whose futures are not all settled.
        self._out: List[_Parked] = []
        self._wake = asyncio.Event()
        self._flusher: Optional[asyncio.Task] = None
        #: When the last frame was handed to ``send`` (``_clock`` seconds).
        self._sent = -math.inf

    @property
    def parked(self) -> int:
        """Keys waiting for the next flush."""
        return sum(len(keys) for keys in self._pending.values())

    def park(self, bucket: Hashable, key: Hashable
             ) -> Tuple[asyncio.Future, bool]:
        """A future answering ``key`` in ``bucket``; whether the key is new.

        Not new means an earlier caller parked the same key and it has not
        left yet: the key is sent once and settles both callers' futures.
        """
        keys = self._pending.get(bucket)
        if keys is None:
            keys = self._pending[bucket] = {}
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        callers = keys.get(key)
        if callers is not None:
            callers.append(future)
            return future, False
        keys[key] = [future]
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_loop(),
                                             name=self._name)
        self._wake.set()
        return future, True

    async def flush(self) -> None:
        """Send everything parked now, without waiting out the window."""
        while self._pending:
            batch, self._pending = self._pending, {}
            self._out.append(batch)
            for bucket, parked in batch.items():
                # Insertion order aligns keys with their callers.
                keys = list(parked)
                callers = list(parked.values())
                for start in range(0, len(keys), self.max_batch):
                    chunk = keys[start:start + self.max_batch]
                    waiting = callers[start:start + self.max_batch]
                    self._sent = self._clock()
                    try:
                        values = await self._send(bucket, chunk)
                    except Exception as exc:  # fail the chunk, not the loop
                        _fail(waiting, exc)
                        continue
                    if len(values) != len(chunk):
                        _fail(waiting, RuntimeError(
                            f"send answered {len(values)} values for a "
                            f"frame of {len(chunk)} keys"))
                        continue
                    for futures, value in zip(waiting, values):
                        for future in futures:
                            if not future.done():
                                future.set_result(value)
            self._out.remove(batch)

    async def aclose(self, error: Exception) -> None:
        """Stop the flusher; fail every future handed out and not settled.

        That is the keys still parked *and* the keys of a frame that is
        out: cancelling the flusher cancels its ``send`` mid-await, and the
        callers of that frame would otherwise wait forever.
        """
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        self._out.append(self._pending)
        self._pending = {}
        for batch in self._out:
            for parked in batch.values():
                _fail(parked.values(), error)
        self._out.clear()

    async def _flush_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._pending:
                # Keep the spacing: sleep only what is left of the window
                # since the previous frame left — nothing after a quiet
                # period, or in a loop clocked by replies a window apart.
                wait = self._sent + self.window - self._clock()
                if wait > 0:
                    await self._sleep(wait)
            await self.flush()


__all__ = ["Coalescer"]
