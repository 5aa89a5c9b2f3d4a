"""Reference oracle: the chunk-at-a-time frozen snapshot walk.

``GFSLSnapshot`` reads a range in two phases: it chases the frozen
bottom chain on each chunk's NEXT and LOCK words, then filters every
visited chunk's data rows in one numpy pass.  This module keeps the
walk it replaced — one full block image per visited chunk, a key mask,
a stable sort and a strictly-increasing key guard per chunk — so the
identity tests can assert the two return the same pairs and charge the
tracer the same accesses in the same order.  Only tests import it.
"""

from __future__ import annotations

import numpy as np

from repro.core import constants as C
from repro.core.chunk import (is_zombie, keys_vec, max_field, next_ptr,
                              vals_vec)
from repro.core.epoch import HEAD_BLOCK


def read_block(snap, block: int) -> np.ndarray:
    """The image of ``block`` as of the snapshot's epoch: the retained
    version when the block changed since, else a copy of the live
    words."""
    if snap._released:
        raise RuntimeError("snapshot read after release")
    image = snap._mgr.retained_image(snap._domain, block, snap.epoch)
    if image is not None:
        return image
    start, stop = snap._domain.block_range(block)
    return snap.sl.ctx.mem.raw()[start:stop].copy()


def iter_chunk_pairs(snap, lo: int, hi: int, tracer=None):
    """Yield ``(key, value)`` pairs in ``[lo, hi]`` in ascending key
    order from the frozen bottom chain, one chunk at a time."""
    sl = snap.sl
    geo, lay = sl.geo, sl.layout
    head = read_block(snap, HEAD_BLOCK)
    ptr = int(head[lay.head_addr(0) - lay.base]) >> 32
    last = lo - 1
    seen: set[int] = set()
    while ptr != C.NULL_PTR and ptr not in seen:
        seen.add(ptr)
        kvs = read_block(snap, ptr)
        if tracer is not None:
            tracer.access_words(lay.chunk_addr(ptr), geo.n, coalesced=True)
        if not is_zombie(kvs, geo):
            keys = keys_vec(kvs)[: geo.dsize]
            vals = vals_vec(kvs)[: geo.dsize]
            mask = ((keys >= lo) & (keys <= hi)
                    & (keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY))
            idx = np.nonzero(mask)[0]
            if idx.size:
                order = np.argsort(keys[idx], kind="stable")
                for i in idx[order]:
                    k = int(keys[i])
                    if k > last:
                        yield k, int(vals[i])
                        last = k
            if max_field(kvs, geo) > hi:
                return
        ptr = next_ptr(kvs, geo)


def range_query(snap, lo: int, hi: int, tracer=None):
    if lo > hi:
        return []
    return list(iter_chunk_pairs(snap, lo, hi, tracer=tracer))


def items(snap, tracer=None):
    return list(iter_chunk_pairs(snap, C.MIN_USER_KEY, C.MAX_USER_KEY,
                                 tracer=tracer))


def keys(snap, tracer=None):
    return [k for k, _ in items(snap, tracer=tracer)]
