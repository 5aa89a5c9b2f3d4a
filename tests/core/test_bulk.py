"""Tests for the vectorized bulk builder: it must be indistinguishable
from incremental construction (DESIGN.md §2's substitution argument)."""

import numpy as np
import pytest

from repro.core import (GFSL, bulk_build_into, suggest_capacity,
                        validate_structure)
from repro.core import constants as C
from repro.core.bulk import _per_chunk, warm_structure
from repro.core.chunk import keys_vec
from repro.core.validate import level_chain, level_items, structure_height


def test_empty_build():
    sl = GFSL(capacity_chunks=64, team_size=16, seed=1)
    counts = bulk_build_into(sl, [])
    assert counts == {}
    assert sl.keys() == []
    assert not sl.contains(5)
    assert sl.insert(5)


def test_small_build_roundtrip():
    sl = GFSL(capacity_chunks=64, team_size=16, seed=1)
    bulk_build_into(sl, [5, 2, 9], [50, 20, 90])
    assert sl.items() == [(2, 20), (5, 50), (9, 90)]
    assert sl.get(5) == 50


def test_build_validates_and_searches():
    sl = GFSL(capacity_chunks=2048, team_size=16, seed=2)
    rng = np.random.default_rng(0)
    keys = rng.choice(np.arange(1, 10**6), size=3000, replace=False)
    bulk_build_into(sl, keys, keys % 1000)
    stats = validate_structure(sl)
    assert stats["height"] >= 2
    assert sl.keys() == sorted(int(k) for k in keys)
    for k in keys[:100]:
        assert sl.contains(int(k))
        assert sl.get(int(k)) == int(k) % 1000


def test_build_rejects_duplicates():
    sl = GFSL(capacity_chunks=64, team_size=16, seed=1)
    with pytest.raises(ValueError):
        bulk_build_into(sl, [5, 5], [0, 1])


def test_build_capacity_exhaustion():
    sl = GFSL(capacity_chunks=20, team_size=16, seed=1)
    from repro.core.pool import OutOfChunks
    with pytest.raises(OutOfChunks):
        bulk_build_into(sl, range(1, 2000))


def test_updates_after_build():
    sl = GFSL(capacity_chunks=512, team_size=16, seed=3)
    bulk_build_into(sl, range(10, 1000, 10))
    assert sl.insert(15)
    assert sl.delete(20)
    assert not sl.insert(30)
    assert sl.contains(15) and not sl.contains(20)
    validate_structure(sl)


def test_chunk_occupancy_matches_incremental_steady_state():
    """The builder's fill (~2/3 DSIZE) must sit inside the occupancy
    band incremental insertion converges to."""
    team = 16
    sl_inc = GFSL(capacity_chunks=2048, team_size=team, seed=4)
    rng = np.random.default_rng(1)
    keys = rng.choice(np.arange(1, 10**6), size=3000, replace=False)
    for k in keys:
        sl_inc.insert(int(k))
    occup = []
    for _p, kvs in level_chain(sl_inc, 0):
        if int(kvs[sl_inc.geo.lock_idx]) == C.ZOMBIE:
            continue
        occup.append(int(np.count_nonzero(
            keys_vec(kvs)[: sl_inc.geo.dsize] != C.EMPTY_KEY)))
    mean_inc = np.mean(occup)
    built_fill = _per_chunk(sl_inc.geo, 2.0 / 3.0)
    # Paper: "chunks of size 16 hold an average of 10 keys".
    assert abs(mean_inc - built_fill) <= 2.5


def test_level_geometry_matches_incremental():
    """Bulk and incremental construction give statistically similar
    height and per-level chunk counts."""
    team = 16
    rng = np.random.default_rng(2)
    keys = rng.choice(np.arange(1, 10**6), size=2000, replace=False)
    sl_inc = GFSL(capacity_chunks=2048, team_size=team, seed=5)
    for k in keys:
        sl_inc.insert(int(k))
    sl_blk = GFSL(capacity_chunks=2048, team_size=team, seed=5)
    bulk_build_into(sl_blk, keys)
    assert abs(structure_height(sl_inc) - structure_height(sl_blk)) <= 1
    assert sl_inc.keys() == sl_blk.keys()
    # Level-1 key count within 2x of each other (same promotion rate).
    l1_inc = len(level_items(sl_inc, 1))
    l1_blk = len(level_items(sl_blk, 1))
    assert 0.5 <= (l1_inc + 1) / (l1_blk + 1) <= 2.0


def test_p_chunk_controls_promotion():
    rng = np.random.default_rng(3)
    keys = rng.choice(np.arange(1, 10**6), size=2000, replace=False)
    sl_hi = GFSL(capacity_chunks=2048, team_size=16, p_chunk=1.0, seed=6)
    bulk_build_into(sl_hi, keys, rng=np.random.default_rng(7))
    sl_lo = GFSL(capacity_chunks=2048, team_size=16, p_chunk=0.3, seed=6)
    bulk_build_into(sl_lo, keys, rng=np.random.default_rng(7))
    assert len(level_items(sl_hi, 1)) > len(level_items(sl_lo, 1))


def test_warm_structure_loads_l2():
    sl = GFSL(capacity_chunks=128, team_size=16, seed=8)
    bulk_build_into(sl, range(10, 500, 10))
    warm_structure(sl)
    sl.ctx.tracer.reset_stats = lambda: None  # keep warm state (noop)
    before = sl.ctx.tracer.stats.dram_transactions
    sl.contains(250)
    # Everything resident → no DRAM traffic.
    assert sl.ctx.tracer.stats.dram_transactions == before


def test_suggest_capacity_reasonable():
    for n in (10, 1000, 100_000):
        for ts in (16, 32):
            cap = suggest_capacity(n, ts)
            geo_keys = cap * (ts - 2)
            assert geo_keys >= n  # room for everything
    assert suggest_capacity(0) >= 48
