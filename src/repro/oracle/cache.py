"""The oracle engine's answer cache.

:class:`AnswerCache` is a fixed-size, 4-way set-associative table over
int64 pair codes, held in three flat numpy arrays (key, value, use stamp)
preallocated at ``24 × capacity`` bytes.  A whole frame is probed and
filled in a fixed handful of numpy calls (:meth:`AnswerCache.probe` /
:meth:`AnswerCache.fill`), so a cached batch costs about what the gather
it saves costs; point queries go through a scalar
:meth:`~AnswerCache.get` / :meth:`~AnswerCache.put` over the *same*
table.  Replacement is least-recently-used within a key's set, not across
the whole table.

It is the only cache the engine has: answers are cached, rows are not —
a row read is a view of the artifact's array or map
(:meth:`~repro.oracle.sharding.ShardedOracleArtifact.row`), and what
keeps a hot mapped row fast is the page cache.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["AnswerCache"]

#: Slots per set.  Four int64 keys are half a cache line, and 4-way LRU
#: tracks a full LRU's hit ratio to the third decimal on the benchmark's
#: uniform and Zipf traffic.
WAYS = 4

_EMPTY = -1
_PRIME = (1 << 31) - 1
#: Odd 31-bit multiplier (2^31 / golden ratio).  The key is reduced below
#: 2^31 first, so the product stays under 2^62: a Python int and an int64
#: array go through the same arithmetic and land in the same set.
_MULTIPLIER = 0x4F1BBCDD


class AnswerCache:
    """A set-associative cache from non-negative int64 keys to floats.

    ``capacity`` is rounded down to whole sets of :data:`WAYS` slots (a
    capacity below ``WAYS`` is one narrower set); 0 disables caching.  A
    key lives in at most one slot of the one set its hash selects; a new
    key replaces the least recently stamped slot of that set.  Stamps
    come from one clock shared by the scalar and the batch methods, so
    either path sees — and ages — what the other stored.

    The cache stores what it is given and never computes: a hit returns
    the last value stored under that key.  Not thread-safe — an engine is
    driven by one thread.
    """

    __slots__ = ("capacity", "hits", "misses", "_ways", "_sets", "_clock",
                 "_keys", "_values", "_stamps", "_key_rows", "_stamp_rows",
                 "_key_at", "_value_at", "_stamp_at")

    def __init__(self, capacity: int = 65536):
        if capacity < 0:
            raise ValueError(f"cache capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._ways = min(WAYS, self.capacity)
        self._sets = self.capacity // self._ways if self._ways else 0
        self._clock = 0
        slots = self._sets * self._ways
        self._keys = np.full(slots, _EMPTY, dtype=np.int64)
        self._values = np.zeros(slots, dtype=np.float64)
        self._stamps = np.zeros(slots, dtype=np.int64)
        self._key_rows = self._keys.reshape(self._sets, self._ways)
        self._stamp_rows = self._stamps.reshape(self._sets, self._ways)
        # Scalar access goes through memoryviews: indexing one yields a
        # Python int/float directly, with no size-1 array in between.
        self._key_at = memoryview(self._keys)
        self._value_at = memoryview(self._values)
        self._stamp_at = memoryview(self._stamps)

    def _set_of(self, key):
        """Set index of ``key`` — a Python int or an int64 array alike."""
        return ((key % _PRIME) * _MULTIPLIER >> 24) % self._sets

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Look up a whole frame: ``(hit mask, values)``.

        ``values[i]`` is meaningful only where ``hit[i]``.  Hits are
        stamped as used; every key counts as one hit or one miss.
        """
        count = len(keys)
        if not self._sets or not count:
            self.misses += count
            return np.zeros(count, dtype=bool), np.zeros(count, dtype=np.float64)
        sets = self._set_of(keys)
        match = self._key_rows.take(sets, axis=0) == keys[:, None]
        slots = sets * self._ways + match.argmax(axis=1)
        hit = self._keys.take(slots) == keys
        self._clock += 1
        self._stamps[slots[hit]] = self._clock
        hits = int(np.count_nonzero(hit))
        self.hits += hits
        self.misses += count - hits
        return hit, self._values.take(slots)

    def fill(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store a whole frame of answers.

        A key already present is overwritten in place; a new key takes
        the least recently stamped slot of its set.  When several keys
        of one frame claim the same slot (the same key twice, or two new
        keys of one set choosing the same victim) the last one gets it
        and the others simply are not cached.
        """
        count = len(keys)
        if not self._sets or not count:
            return
        sets = self._set_of(keys)
        match = self._key_rows.take(sets, axis=0) == keys[:, None]
        slots = sets * self._ways + match.argmax(axis=1)
        absent = self._keys.take(slots) != keys
        crowded = sets[absent]
        slots[absent] = (crowded * self._ways
                         + self._stamp_rows.take(crowded, axis=0).argmin(axis=1))
        # Claim slots by stamp: ``maximum.at`` is unbuffered, so a slot
        # claimed twice keeps the later claim whatever order numpy walks
        # the frame in, and the keys and values written below agree.
        claims = np.arange(self._clock + 1, self._clock + 1 + count, dtype=np.int64)
        self._clock += count
        np.maximum.at(self._stamps, slots, claims)
        won = self._stamps.take(slots) == claims
        slots = slots[won]
        self._keys[slots] = keys[won]
        self._values[slots] = values[won]

    # ------------------------------------------------------------------
    # scalar path (same table, same clock)
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[float]:
        """The value cached under ``key`` or ``None``; counts the outcome."""
        if self._sets:
            base = self._set_of(key) * self._ways
            key_at = self._key_at
            for slot in range(base, base + self._ways):
                if key_at[slot] == key:
                    self.hits += 1
                    self._clock += 1
                    self._stamp_at[slot] = self._clock
                    return self._value_at[slot]
        self.misses += 1
        return None

    def put(self, key: int, value: float) -> None:
        """Store one answer, replacing the set's least recently used slot."""
        if not self._sets:
            return
        base = self._set_of(key) * self._ways
        key_at, stamp_at = self._key_at, self._stamp_at
        victim = base
        for slot in range(base, base + self._ways):
            if key_at[slot] == key:
                victim = slot
                break
            if stamp_at[slot] < stamp_at[victim]:
                victim = slot
        key_at[victim] = key
        self._value_at[victim] = value
        self._clock += 1
        stamp_at[victim] = self._clock

    def clear(self) -> None:
        """Empty the table (hit/miss counters are kept)."""
        self._keys.fill(_EMPTY)
        self._stamps.fill(0)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._keys != _EMPTY))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
