"""Vectorized bulk builder for the M&C baseline (prefill substitute).

Constructs the steady-state lock-free skiplist directly: one node per
key with a geometric tower height (probability ``p_key``), nodes laid
out in key order in the pool (matching the allocation pattern of an
insert-in-random-order prefill is irrelevant to the cost model — what
matters is that pointer hops land on *distinct cache lines*, which holds
for any non-adjacent node layout; a shuffled layout is available for the
locality ablation).
"""

from __future__ import annotations

import numpy as np

from ..core.bulk import sorted_kv
from . import node as N
from .mc_skiplist import MCSkiplist


def bulk_build_into(mc: MCSkiplist, keys, values=None,
                    rng: np.random.Generator | None = None,
                    shuffle_layout: bool = True) -> dict:
    """Populate a fresh :class:`MCSkiplist` host-side with ``keys`` (int
    array; need not be sorted but must be unique) mapped to ``values``
    (int array of the same length, all 0 when None).

    Returns per-level node counts.  ``shuffle_layout`` permutes node
    placement in the pool so that key order does not imply address order
    (as after a random-order prefill).
    """
    rng = rng if rng is not None else np.random.default_rng(0xB0B)
    keys, vals = sorted_kv(keys, values)
    n = int(keys.size)
    mem = mc.ctx.mem
    if n == 0:
        return {}

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
    # Headers and level-0 links go out in placement order (rising
    # addresses, cheaper than key order's scattered writes); each upper
    # level filters the members of the level below.
    at = base + place_offsets  # at[j] = address of key order[j]
    succ = np.append(addrs[1:], mc.tail).astype(np.uint64)
    raw[at] = (keys | (vals << np.uint64(32)))[order]
    raw[at + 1] = heights[order].astype(np.uint64)
    raw[at + N.HEADER_WORDS] = succ[order]

    head_links = mc.head + N.HEADER_WORDS
    mem.write_word(head_links, N.pack_link(int(addrs[0])))
    counts = {0: n}
    member = np.arange(n)
    for level in range(1, mc.max_level):
        member = member[heights[member] > level]
        counts[level] = int(member.size)
        if member.size == 0:
            mem.write_word(head_links + level, N.pack_link(mc.tail))
            continue
        level_addrs = addrs[member]
        succ = np.append(level_addrs[1:], mc.tail).astype(np.uint64)
        raw[level_addrs + N.HEADER_WORDS + level] = succ
        mem.write_word(head_links + level, N.pack_link(int(level_addrs[0])))
    return counts


def warm_structure(mc: MCSkiplist) -> None:
    """Load the node pool's resident span into the simulated L2."""
    used = mc.pool.allocated_words(mc.ctx.mem)
    mc.ctx.tracer.warm_words(mc.pool.first_node, used)
