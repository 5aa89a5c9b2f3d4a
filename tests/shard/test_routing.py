"""RoutingTable: versioned boundary maps from a generation-0 table."""

import numpy as np
import pytest

from repro.shard import RoutingTable

KEY_RANGE = 4_096


def _table(n_shards=4, kind="range"):
    if kind == "range":
        return RoutingTable.range(n_shards, KEY_RANGE)
    return RoutingTable.hash(n_shards)


def test_generation_zero_is_the_constructed_table():
    for kind in ("range", "hash"):
        rt = _table(kind=kind)
        fresh = _table(kind=kind)
        keys = np.arange(1, KEY_RANGE + 1, dtype=np.int64)
        assert rt.generation == 0
        np.testing.assert_array_equal(
            rt.shard_of_array(keys), rt.shard_of_array(keys, 0))
        np.testing.assert_array_equal(
            rt.shard_of_array(keys), fresh.shard_of_array(keys))
        for k in (1, 17, KEY_RANGE):
            assert rt.shard_of(k) == int(rt.shard_of_array([k], 0)[0])
    # Range generation 0 is the linspace split, one segment per shard.
    assert _table().segments() == [(1, 1024, 0), (1025, 2048, 1),
                                   (2049, 3072, 2), (3073, 4096, 3)]


def test_publish_move_rewrites_owners_inside_the_range_only():
    rt = _table()
    keys = np.arange(1, KEY_RANGE + 1, dtype=np.int64)
    before = rt.shard_of_array(keys)
    lo, hi = 100, 300
    gen = rt.publish_move(lo, hi, dst=3, step=42)
    assert gen == rt.generation == 1
    after = rt.shard_of_array(keys)
    inside = (keys >= lo) & (keys <= hi)
    assert (after[inside] == 3).all()
    np.testing.assert_array_equal(after[~inside], before[~inside])
    # The old plan is still queryable by generation.
    np.testing.assert_array_equal(rt.shard_of_array(keys, 0), before)
    assert rt.history == [{"generation": 1, "lo": 100, "hi": 300,
                           "dst": 3, "src": [0], "step": 42}]


def test_moves_compose_and_scalar_matches_vector():
    rt = _table()
    rng = np.random.default_rng(7)
    for _ in range(6):
        lo = int(rng.integers(1, KEY_RANGE - 10))
        hi = int(rng.integers(lo, KEY_RANGE))
        rt.publish_move(lo, hi, dst=int(rng.integers(0, 4)))
    keys = np.arange(1, KEY_RANGE + 1, dtype=np.int64)
    vec = rt.shard_of_array(keys)
    sample = rng.choice(keys, size=64, replace=False)
    for k in sample:
        assert rt.shard_of(int(k)) == vec[int(k) - 1]


def test_segments_cover_the_key_space_and_coalesce():
    rt = _table()
    rt.publish_move(100, 300, dst=3)
    segs = rt.segments()
    # Contiguous cover starting at key 1, no equal-owner neighbours.
    assert segs[0][0] == 1
    for (lo_a, hi_a, own_a), (lo_b, _hi_b, own_b) in zip(segs, segs[1:]):
        assert lo_b == hi_a + 1
        assert own_a != own_b
    # Donating the range back to its original owner coalesces fully.
    rt.publish_move(100, 300, dst=0)
    assert rt.segments() == rt.segments(generation=0)
    assert rt.segments(sid=2) == [
        (lo, hi, own) for lo, hi, own in rt.segments() if own == 2]


def test_hash_partitioner_cannot_migrate_but_still_routes():
    rt = _table(kind="hash")
    with pytest.raises(ValueError, match="range-expressible"):
        rt.publish_move(10, 20, dst=1)
    with pytest.raises(ValueError, match="range-expressible"):
        rt.segments()
    assert rt.generation == 0
    assert rt.shard_of(55) == _table(kind="hash").shard_of(55)


def test_publish_move_validates_inputs():
    rt = _table()
    with pytest.raises(ValueError, match="out of range"):
        rt.publish_move(1, 2, dst=4)
    with pytest.raises(ValueError, match="empty"):
        rt.publish_move(20, 10, dst=1)
