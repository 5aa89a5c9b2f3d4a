"""Reference oracle: the tuple-list bulk builders.

``repro.core.bulk`` and ``repro.baseline.bulk`` build from flat key and
value arrays sorted with numpy.  This module keeps the builders they
replaced, which took an iterable of ``(key, value)`` tuples, ran it
through ``sorted()`` and unzipped it back into arrays, so the identity
tests can assert the two write the same memory image, allocate the same
pool, return the same level counts and raise the same errors.  Only
tests import it.
"""

from __future__ import annotations

import numpy as np

from repro.baseline import node as N
from repro.core import constants as C
from repro.core.bulk import DEFAULT_FILL, _per_chunk, plan_chunks
from repro.core.gfsl import suggest_capacity
from repro.core.pool import OutOfChunks


def _check_items(items) -> None:
    """The key contract on sorted ``(key, value)`` tuples: every value,
    then the smallest and the largest key."""
    if items:
        vals = [v for _, v in items]
        C.check_value(min(vals))
        C.check_value(max(vals))
        C.check_key(items[0][0])
        C.check_key(items[-1][0])


def bulk_build_into(sl, items, rng: np.random.Generator | None = None,
                    fill: float = DEFAULT_FILL) -> dict:
    """The tuple-list GFSL builder."""
    items = sorted(items)
    _check_items(items)
    keys = np.asarray([k for k, _ in items], dtype=np.uint64)
    vals = np.asarray([v for _, v in items], dtype=np.uint64)
    if keys.size and np.any(keys[1:] == keys[:-1]):
        raise ValueError("bulk build keys must be unique")
    geo = sl.geo
    lay = sl.layout
    mem = sl.ctx.mem
    sl._format()
    rng = rng if rng is not None else np.random.default_rng(0xB111D)

    per_chunk = _per_chunk(geo, fill)
    # Bounded view: the chunk region ends at capacity, not at the end of
    # device memory — another co-located instance may live right after.
    pool_view = mem.raw()[lay.chunks_base: lay.chunks_base
                          + lay.capacity_chunks * geo.n
                          ].reshape(lay.capacity_chunks, geo.n)
    next_free = lay.max_level  # chunks 0..max_level-1 are the initial ones
    level_counts: list[int] = []

    level = 0
    while True:
        n_keys = int(keys.size)
        if n_keys == 0:
            break
        n_chunks = -(-n_keys // per_chunk)
        if next_free + n_chunks > lay.capacity_chunks:
            raise OutOfChunks(
                f"bulk build: level {level} needs {n_chunks} chunks",
                capacity=lay.capacity_chunks, allocated=next_free,
                live_keys=len(items),
                suggested_capacity=suggest_capacity(max(len(items), 1),
                                                    team_size=geo.n))
        base = next_free
        ptrs = np.arange(base, base + n_chunks, dtype=np.uint64)

        # Pack the level's KVs into a padded (n_chunks, per_chunk) grid.
        kv = keys | (vals << np.uint64(32))
        padded = np.full(n_chunks * per_chunk, np.uint64(C.EMPTY_KV),
                         dtype=np.uint64)
        padded[:n_keys] = kv
        grid = padded.reshape(n_chunks, per_chunk)

        block = pool_view[base: base + n_chunks]
        block[:, :per_chunk] = grid
        block[:, per_chunk: geo.dsize] = np.uint64(C.EMPTY_KV)

        # NEXT words: non-last chunks are full, their max is the key at
        # per_chunk-1; the last chunk in the level gets (∞, NULL).
        nexts = np.empty(n_chunks, dtype=np.uint64)
        if n_chunks > 1:
            maxes = grid[:-1, per_chunk - 1] & np.uint64(C.MASK32)
            nexts[:-1] = maxes | (ptrs[1:] << np.uint64(32))
        nexts[-1] = np.uint64(C.pack_kv(C.EMPTY_KEY, C.NULL_PTR))
        block[:, geo.next_idx] = nexts
        block[:, geo.lock_idx] = np.uint64(C.UNLOCKED)

        # Hook the level's initial (−∞) chunk to the first data chunk;
        # its max is −∞ so any user-key search steps laterally past it.
        init_ptr = level  # initial chunk of level i is pool index i
        mem.write_word(lay.entry_addr(init_ptr, geo.next_idx),
                       C.pack_kv(C.NEG_INF_KEY, int(ptrs[0])))
        mem.write_word(lay.head_addr(level), C.pack_kv(n_chunks, init_ptr))

        next_free += n_chunks
        level_counts.append(n_chunks)

        # Promote: min key of every chunk after the first, coin per chunk.
        if n_chunks <= 1 or level + 1 >= lay.max_level:
            break
        candidates = np.arange(1, n_chunks)
        if sl.p_chunk >= 1.0:
            chosen = candidates
        else:
            chosen = candidates[rng.random(candidates.size) < sl.p_chunk]
        if chosen.size == 0:
            break
        keys = grid[chosen, 0] & np.uint64(C.MASK32)
        vals = ptrs[chosen]  # down pointers: the chunk holding the key
        level += 1

    sl.pool.set_allocated(mem, next_free)
    return {lvl: cnt for lvl, cnt in enumerate(level_counts)}


def rebuild_into(sl, items, rng: np.random.Generator | None = None,
                 fill: float = DEFAULT_FILL) -> dict:
    """The tuple-list rebuild: pin and capacity prechecks, then the
    tuple-list builder."""
    items = list(items)
    mgr = getattr(sl.ctx, "_epochs", None)
    if mgr is not None and mgr.active_pins:
        raise RuntimeError(
            f"rebuild_into with {mgr.active_pins} live snapshot pin(s): "
            "the builder's raw writes bypass the epoch barrier and "
            "would tear pinned views")
    lay = sl.layout
    need = plan_chunks(sl.geo, lay.max_level, len(items), fill)
    if need > lay.capacity_chunks:
        raise OutOfChunks(
            f"rebuild needs {need} chunks (worst case)",
            capacity=lay.capacity_chunks, allocated=lay.max_level,
            live_keys=len(items),
            suggested_capacity=suggest_capacity(max(len(items), 1),
                                                team_size=sl.geo.n))
    return bulk_build_into(sl, items, rng=rng, fill=fill)


def mc_bulk_build_into(mc, items, rng: np.random.Generator | None = None,
                       shuffle_layout: bool = True) -> dict:
    """The tuple-list M&C builder."""
    rng = rng if rng is not None else np.random.default_rng(0xB0B)
    items = sorted(items)
    n = len(items)
    mem = mc.ctx.mem
    if n == 0:
        return {}
    _check_items(items)
    keys = np.asarray([k for k, _ in items], dtype=np.uint64)
    vals = np.asarray([v for _, v in items], dtype=np.uint64)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("bulk build keys must be unique")

    # Geometric tower heights, capped at max_level.
    u = rng.random(n)
    heights = np.minimum(
        1 + np.floor(np.log(np.maximum(u, 1e-300))
                     / np.log(mc.p_key)).astype(np.int64),
        mc.max_level)
    heights = np.maximum(heights, 1)

    sizes = N.HEADER_WORDS + heights
    # Node placement: contiguous blocks, optionally in shuffled order.
    order = rng.permutation(n) if shuffle_layout else np.arange(n)
    place_sizes = sizes[order]
    place_offsets = np.concatenate(([0], np.cumsum(place_sizes)[:-1]))
    base = mc.pool.host_alloc(mem, int(place_sizes.sum()))
    addrs = np.empty(n, dtype=np.int64)
    addrs[order] = base + place_offsets  # addrs[i] = address of key i

    raw = mem.raw()
    raw[addrs] = keys | (vals << np.uint64(32))
    raw[addrs + 1] = heights.astype(np.uint64)

    counts: dict[int, int] = {}
    head_links = mc.head + N.HEADER_WORDS
    for level in range(mc.max_level):
        member = np.nonzero(heights > level)[0]
        counts[level] = int(member.size)
        if member.size == 0:
            mem.write_word(head_links + level, N.pack_link(mc.tail))
            continue
        level_addrs = addrs[member]
        link_addrs = level_addrs + N.HEADER_WORDS + level
        succ = np.empty(member.size, dtype=np.uint64)
        succ[:-1] = level_addrs[1:].astype(np.uint64)
        succ[-1] = np.uint64(mc.tail)
        raw[link_addrs] = succ
        mem.write_word(head_links + level, N.pack_link(int(level_addrs[0])))
    return counts
