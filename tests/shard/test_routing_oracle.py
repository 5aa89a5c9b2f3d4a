"""``RoutingTable`` against the partitioner-plus-delegate oracle in
``partition_oracle``: for range, sampled and hash tables, and after any
sequence of published moves, every generation routes every key to the
same shard, reports the same segments, and records the same history.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.shard import RoutingTable
from tests.shard import partition_oracle as oracle


@st.composite
def tables(draw):
    kind = draw(st.sampled_from(("range", "sampled", "hash")))
    n_shards = draw(st.integers(1, 8))
    if kind == "hash":
        seed = draw(st.integers(0, 2**16))
        return (kind, RoutingTable.hash(n_shards, seed),
                oracle.OracleTable(oracle.OracleHash(n_shards, seed)), 1000)
    key_range = draw(st.integers(n_shards, 5_000))
    if kind == "range":
        return (kind, RoutingTable.range(n_shards, key_range),
                oracle.OracleTable(oracle.OracleRange(n_shards, key_range)),
                key_range)
    # Few distinct values give duplicate quantiles (empty shards).
    pool = st.integers(-3, key_range + 200)
    sample = draw(st.one_of(
        st.lists(pool, max_size=200),
        st.lists(st.sampled_from(draw(st.lists(pool, min_size=1,
                                                max_size=3))),
                 max_size=200)))
    return (kind, RoutingTable.from_sample(n_shards, key_range, sample),
            oracle.OracleTable(oracle.OracleRange.from_sample(
                n_shards, key_range, sample)),
            key_range)


def _probe_keys(key_range):
    span = np.arange(-3, key_range + 201, dtype=np.int64)
    far = np.array([2**31, 2**32 - 2, 2**32, 2**40], dtype=np.int64)
    return np.concatenate([span, far])


def _agree(table, ref, keys):
    for gen in range(table.generation + 1):
        np.testing.assert_array_equal(table.shard_of_array(keys, gen),
                                      ref.shard_of_array(keys, gen))
        for k in keys[:: max(1, keys.size // 16)]:
            assert table.shard_of(int(k), gen) == ref.shard_of(int(k), gen)
        if table.range_expressible:
            for sid in [None, *range(table.n_shards)]:
                assert table.segments(sid, gen) == ref.segments(sid, gen)
    np.testing.assert_array_equal(table.shard_of_array(keys),
                                  ref.shard_of_array(keys))
    assert table.history == ref.history


moves = st.lists(st.tuples(st.integers(-3, 5_300), st.integers(0, 600),
                           st.integers(0, 7), st.integers(0, 10**6)),
                 max_size=5)


@settings(max_examples=300, deadline=None)
@given(case=tables(), moves=moves)
@example(case=None, moves=[(1, 10, 0, 0)])
def test_every_generation_matches_the_oracle(case, moves):
    if case is None:     # duplicate sample quantiles, then a move
        sample = [5] * 50 + [900]
        case = ("sampled", RoutingTable.from_sample(4, 1000, sample),
                oracle.OracleTable(oracle.OracleRange.from_sample(
                    4, 1000, sample)), 1000)
    kind, table, ref, key_range = case
    keys = _probe_keys(key_range)
    _agree(table, ref, keys)
    for lo, width, dst, step in moves:
        dst %= table.n_shards
        if kind == "hash":
            with pytest.raises(ValueError, match="range-expressible"):
                table.publish_move(lo, lo + width, dst, step)
            with pytest.raises(ValueError, match="range-expressible"):
                table.segments()
            continue
        assert table.publish_move(lo, lo + width, dst, step) \
            == ref.publish_move(lo, lo + width, dst, step)
        _agree(table, ref, keys)
    assert table.range_expressible == (kind != "hash")


def test_empty_sample_gives_the_range_table():
    sampled = RoutingTable.from_sample(4, 1000, [])
    plain = RoutingTable.range(4, 1000)
    assert sampled.segments() == plain.segments()
    keys = np.arange(-3, 1200, dtype=np.int64)
    np.testing.assert_array_equal(sampled.shard_of_array(keys),
                                  plain.shard_of_array(keys))


@pytest.mark.parametrize("build", [
    lambda: RoutingTable.range(0, 100),
    lambda: RoutingTable.range(4, 3),
    lambda: RoutingTable.from_sample(0, 100, [1, 2]),
    lambda: RoutingTable.hash(0),
])
def test_constructors_validate_their_sizes(build):
    with pytest.raises(ValueError):
        build()
