"""Reference oracle: the carry-rescan wave planner.

``repro.engine.vectorized.plan_waves`` pops per-key queue heads from a
heap.  This module keeps the straightforward version it replaced — one
pass over the whole deferred carry per wave, then new ops until the
wave is full — so the identity tests can assert the two produce the
same waves in the same order.  :func:`sharded_plan_waves` keeps the
matching per-shard wrapper with its element-by-element index remap, so
``ShardedMap.plan_waves`` is checked end to end as well.  Only tests
import it.
"""

from __future__ import annotations

import numpy as np

from repro.engine.vectorized import DEFAULT_WAVE_SIZE
from repro.shard import merge_waves, split_indices


def plan_waves(keys, wave_size: int = DEFAULT_WAVE_SIZE) -> list[list[int]]:
    """Partition op indices into waves of at most ``wave_size`` with no
    key repeated inside a wave.

    Ops on a repeated key are carried to a later wave, and once a key
    has a deferred op, every later op on that key defers behind it —
    per-key FIFO order is preserved exactly, which is what makes the
    wave schedule outcome-equivalent to sequential replay.
    """
    if wave_size < 1:
        raise ValueError("wave_size must be >= 1")
    keys = np.asarray(keys, dtype=np.int64)
    total = int(keys.size)
    waves: list[list[int]] = []
    carry: list[int] = []
    pos = 0
    while pos < total or carry:
        wave: list[int] = []
        seen: set[int] = set()
        blocked: set[int] = set()     # keys with an op already deferred
        new_carry: list[int] = []
        for i in carry:
            k = int(keys[i])
            if k in seen or k in blocked or len(wave) >= wave_size:
                new_carry.append(i)
                blocked.add(k)
            else:
                seen.add(k)
                wave.append(i)
        while pos < total and len(wave) < wave_size:
            k = int(keys[pos])
            if k in seen or k in blocked:
                new_carry.append(pos)
                blocked.add(k)
            else:
                seen.add(k)
                wave.append(pos)
            pos += 1
        carry = new_carry
        waves.append(wave)
    return waves


def sharded_plan_waves(sm, keys, wave_size: int) -> list[list[int]]:
    """``ShardedMap.plan_waves`` for ``wave_size >= sm.n_shards``:
    :func:`plan_waves` per shard on an equal slice of the budget, each
    local index mapped back to its op id, zipped by wave index."""
    keys = np.asarray(keys, dtype=np.int64)
    per_shard = split_indices(
        sm.routing.shard_of_array(keys, sm.routing.generation),
        sm.n_shards)
    shard_budget = max(1, wave_size // sm.n_shards)
    plans = []
    for ix in per_shard:
        local = plan_waves(keys[ix], shard_budget)
        plans.append([[int(ix[j]) for j in wave] for wave in local])
    return merge_waves(plans)
