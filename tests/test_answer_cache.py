"""The engine's answer cache is only ever a cache.

A model test of :class:`~repro.oracle.cache.AnswerCache` against a plain
dict (it may forget, it may never lie), and how ``batch`` takes its
input.  That ``batch`` and ``dist`` give the same bits with the cache
off, thrashing or roomy is the conformance matrix's
(``test_engine_reference.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import random_weighted_graph
from repro.oracle import AnswerCache, QueryEngine, build_oracle

# A narrow key range so sets collide constantly, plus keys beyond 2^32 and
# 2^61 where a wrapped int64 product would part the scalar and array hash.
KEYS = st.one_of(
    st.integers(0, 96),
    st.sampled_from([(1 << 32) + 5, (1 << 40) + 5, (1 << 61) + 5,
                     ((1 << 31) - 1) ** 2, (1 << 62) - 1]),
)
KEY_LISTS = st.lists(KEYS, min_size=0, max_size=12)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("probe"), KEY_LISTS),
        st.tuples(st.just("fill"), KEY_LISTS),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("put"), KEYS),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=60,
)


def as_keys(keys) -> np.ndarray:
    return np.asarray(keys, dtype=np.int64)


def same_set_keys(cache: AnswerCache, count: int):
    """``count`` distinct keys that all hash to set 0 of ``cache``."""
    found = [key for key in range(1, 100_000) if cache._set_of(key) == 0]
    assert len(found) >= count
    return found[:count]


class TestAnswerCacheModel:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.sampled_from([0, 1, 4, 64]), operations=OPERATIONS)
    def test_never_lies_under_random_interleavings(self, capacity, operations):
        cache = AnswerCache(capacity)
        model = {}       # key -> the last value stored under it
        probed = 0
        stored = iter(range(1, 1 << 30))  # every store gets its own value

        def check_hit(key, value):
            # A hit is the last value stored for *that* key, bit for bit.
            assert key in model
            assert value == model[key]

        for name, argument in operations:
            if name == "probe":
                hit, values = cache.probe(as_keys(argument))
                assert hit.shape == values.shape == (len(argument),)
                probed += len(argument)
                for key, found, value in zip(argument, hit.tolist(),
                                             values.tolist()):
                    if found:
                        check_hit(key, value)
            elif name == "fill":
                values = [float(next(stored)) for _ in argument]
                cache.fill(as_keys(argument), np.asarray(values))
                model.update(zip(argument, values))
                if argument and capacity:
                    # The last claim of a frame always lands, and the
                    # scalar path sees what the batch path stored.
                    probed += 1
                    assert cache.get(argument[-1]) == values[-1]
            elif name == "get":
                probed += 1
                value = cache.get(argument)
                if value is not None:
                    check_hit(argument, value)
            elif name == "put":
                value = float(next(stored))
                cache.put(argument, value)
                model[argument] = value
                if capacity:
                    # ... and the batch path sees the scalar path's.
                    probed += 1
                    hit, values = cache.probe(as_keys([argument]))
                    assert hit.tolist() == [True]
                    assert values.tolist() == [value]
            else:
                cache.clear()
                model.clear()
                assert len(cache) == 0
            assert len(cache) <= capacity
            assert cache.hits + cache.misses == probed
            resident = cache._keys[cache._keys >= 0]
            assert len(np.unique(resident)) == len(resident) == len(cache)
            assert set(resident.tolist()) <= set(model)

    def test_duplicate_keys_in_one_frame_keep_the_last_value(self):
        cache = AnswerCache(64)
        cache.fill(as_keys([7, 9, 7, 7]), np.array([1.0, 2.0, 3.0, 4.0]))
        hit, values = cache.probe(as_keys([7, 9]))
        assert hit.tolist() == [True, True]
        assert values.tolist() == [4.0, 2.0]
        assert len(cache) == 2

    def test_two_new_keys_choosing_one_victim(self):
        cache = AnswerCache(4)  # one set: every key collides
        first = [10, 11, 12, 13]
        for value, key in enumerate(first):
            cache.put(key, float(value))
        # Both newcomers pick the set's oldest slot; the later one gets it
        # and the earlier one is simply not cached.
        cache.fill(as_keys([20, 21]), np.array([20.0, 21.0]))
        hit, values = cache.probe(as_keys([20, 21] + first))
        assert hit.tolist() == [False, True, False, True, True, True]
        assert values[hit].tolist() == [21.0, 1.0, 2.0, 3.0]
        assert len(cache) == 4

    @pytest.mark.parametrize("touch", ["get", "probe"])
    def test_a_just_used_key_outlives_an_unused_one_of_its_set(self, touch):
        cache = AnswerCache(64)
        keys = same_set_keys(cache, 5)
        for key in keys[:4]:
            cache.put(key, float(key))
        if touch == "get":
            assert cache.get(keys[0]) == float(keys[0])
        else:
            assert cache.probe(as_keys(keys[:1]))[0].all()
        cache.put(keys[4], float(keys[4]))  # evicts keys[1], the stalest
        assert cache.get(keys[0]) == float(keys[0])
        assert cache.get(keys[1]) is None
        assert cache.get(keys[4]) == float(keys[4])

    def test_preallocated_at_24_bytes_a_slot(self):
        cache = AnswerCache(65536)
        assert (cache._keys.nbytes + cache._values.nbytes
                + cache._stamps.nbytes) == 24 * 65536
        assert AnswerCache(6).capacity == 6
        assert len(AnswerCache(6)._keys) == 4  # whole sets only


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(24, average_degree=5, max_weight=9, seed=5)


@pytest.fixture(scope="module")
def pairs(graph):
    rng = np.random.default_rng(11)
    drawn = rng.integers(0, graph.n, size=(150, 2))
    drawn[::7, 1] = drawn[::7, 0]          # self-pairs
    drawn[40:80] = drawn[:40, ::-1]        # repeats, as (v, u)
    return drawn


class TestBatchInput:
    @pytest.fixture(scope="class")
    def engine(self, graph):
        return QueryEngine(build_oracle(graph, strategy="dense-apsp"))

    def test_array_and_list_of_tuples_agree(self, engine, pairs):
        as_list = [(int(u), int(v)) for u, v in pairs]
        assert np.array_equal(engine.batch(pairs), engine.batch(as_list))
        assert np.array_equal(engine.batch(pairs.astype(np.int32)),
                              engine.batch(as_list))

    def test_out_of_range_names_the_first_offender(self, engine, graph):
        with pytest.raises(ValueError, match=rf"node {graph.n} out of range"):
            engine.batch([(0, 1), (2, graph.n), (-4, 3)])
        with pytest.raises(ValueError, match=r"node -4 out of range"):
            engine.batch(np.array([[0, 1], [-4, 99], [2, graph.n]]))

    def test_rejected_batch_counts_nothing(self, engine):
        before = engine.stats()["queries"]
        with pytest.raises(ValueError):
            engine.batch([(0, 1), (0, 10_000)])
        assert engine.stats()["queries"] == before

    def test_not_pairs_rejected(self, engine):
        with pytest.raises(ValueError, match=r"\(u, v\) pairs"):
            engine.batch([(0, 1, 2), (3, 4, 5)])
        with pytest.raises(ValueError, match=r"\(u, v\) pairs"):
            engine.batch([0, 1, 2, 3])
