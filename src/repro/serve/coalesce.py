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
for the client — and awaits the future it gets back.  Concurrent callers
of one key in one bucket share one future and one sent key.  A single
flusher task, created with the first key, sleeps ``window`` seconds after
the first key of a quiet period, swaps the pending map out and awaits
``send(bucket, keys)`` once per ``max_batch`` chunk.  Keys that park while
a frame is out leave as soon as it lands, with no second window.
"""

from __future__ import annotations

import asyncio
from typing import (
    Awaitable,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: ``send(bucket, keys)`` answers one frame: one value per key, in order.
Send = Callable[[Hashable, List[Hashable]], Awaitable[Sequence[float]]]
_Parked = Dict[Hashable, Dict[Hashable, asyncio.Future]]


class Coalescer:
    """Park keys, flush them in frames through ``send``.

    ``send`` failing (any ``Exception``) fails exactly the futures of the
    chunk it was given; the flusher lives on.  ``name`` names the flusher
    task.  The owner stops parking before it calls :meth:`aclose`.
    """

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
        #: Set by an owner that is shutting down: flush without the window.
        self.draining = False

    @property
    def parked(self) -> int:
        """Keys waiting for the next flush."""
        return sum(len(keys) for keys in self._pending.values())

    def park(self, bucket: Hashable, key: Hashable
             ) -> Tuple[asyncio.Future, bool]:
        """The future answering ``key`` in ``bucket``, and whether it is new.

        Not new means an earlier caller parked the same key and it has not
        left yet: both await the one future.
        """
        keys = self._pending.get(bucket)
        if keys is None:
            keys = self._pending[bucket] = {}
        future = keys.get(key)
        if future is not None:
            return future, False
        loop = asyncio.get_running_loop()
        future = keys[key] = loop.create_future()
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
                # Insertion order aligns keys with futures.
                keys = list(parked)
                futures = list(parked.values())
                for start in range(0, len(keys), self.max_batch):
                    chunk = futures[start:start + self.max_batch]
                    try:
                        values = await self._send(
                            bucket, keys[start:start + self.max_batch])
                    except Exception as exc:  # fail the chunk, not the loop
                        for future in chunk:
                            if not future.done():
                                future.set_exception(exc)
                        continue
                    for future, value in zip(chunk, values):
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
                for future in parked.values():
                    if not future.done():
                        future.set_exception(error)
        self._out.clear()

    async def _flush_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._pending and not self.draining:
                # The micro-batching window: let concurrent callers pile
                # into the pending map before one send.
                await asyncio.sleep(self.window)
            await self.flush()


__all__ = ["Coalescer"]
