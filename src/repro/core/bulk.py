"""Vectorized bulk builder (prefill substitute).

The paper prefills structures with up to 50M random inserts before
measuring (Section 5.1).  Replaying millions of simulated inserts is
pointless — the measured quantity is per-operation cost on the steady-
state structure — so the builder constructs that steady state directly:

* bottom-level chunks filled to ~2/3 of DSIZE (the occupancy incremental
  insertion converges to: "chunks of size 16 hold an average of 10 keys
  ... size 32 ... 20 keys", Section 4.2.2),
* every level-*i* chunk after the first promotes its minimum key to
  level *i+1* with probability ``p_chunk`` (promotion accompanies chunk
  creation, i.e. splits — the first chunk of a level never split into
  existence),
* per-level head pointers and chunk counters set accordingly.

A test (tests/core/test_bulk.py) verifies the builder's output is
indistinguishable from incremental insertion under
:func:`repro.core.validate.validate_structure` and produces the same
occupancy distribution.
"""

from __future__ import annotations

import numpy as np

from . import constants as C
from .chunk import ChunkGeometry

DEFAULT_FILL = 2.0 / 3.0


def _per_chunk(geo: ChunkGeometry, fill: float) -> int:
    return max(2, min(geo.dsize, round(geo.dsize * fill)))


def sorted_kv(keys, values=None) -> tuple[np.ndarray, np.ndarray]:
    """Checked, unique ``keys`` and ``values`` (zeros when None) as flat
    uint64 arrays in key order — the input both bulk builders take."""
    keys = np.asarray(keys, dtype=np.int64)
    if values is None:
        keys, vals = np.sort(keys), np.zeros(keys.size, dtype=np.uint64)
    else:
        vals = np.asarray(values)
        if vals.shape != keys.shape:
            raise ValueError("bulk build values must have one entry per key")
        C.check_array(C.check_value, vals)   # before the cast wraps them
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order].astype(np.uint64)
    if keys.size:                  # sorted: the two ends decide for all
        C.check_key(int(keys[0]))
        C.check_key(int(keys[-1]))
    keys = keys.astype(np.uint64)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("bulk build keys must be unique")
    return keys, vals


def bulk_build_into(sl, keys, values=None,
                    rng: np.random.Generator | None = None,
                    fill: float = DEFAULT_FILL) -> dict:
    """(Re)populate a GFSL with ``keys`` (int array; need not be sorted
    but must be unique user keys) mapped to ``values`` (int array of the
    same length, all 0 when None).

    **Replaces** the structure's current contents: the pool is formatted
    back to its initial state first, so building into a structure that
    already holds keys discards them (use :meth:`GFSL.compact` to rebuild
    preserving contents).

    Returns per-level chunk counts.  Works entirely host-side through
    vectorized numpy writes to the memory pool.
    """
    keys, vals = sorted_kv(keys, values)
    n_items = int(keys.size)
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
            from .gfsl import suggest_capacity
            from .pool import OutOfChunks
            raise OutOfChunks(
                f"bulk build: level {level} needs {n_chunks} chunks",
                capacity=lay.capacity_chunks, allocated=next_free,
                live_keys=n_items,
                suggested_capacity=suggest_capacity(max(n_items, 1),
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


def plan_chunks(geo: ChunkGeometry, max_level: int, n_keys: int,
                fill: float = DEFAULT_FILL) -> int:
    """Worst-case chunk budget of a bulk build of ``n_keys`` keys —
    assumes every eligible chunk promotes (``p_chunk = 1``), so the
    estimate upper-bounds any seed's actual allocation.  Used to
    pre-check capacity *before* formatting a structure: the builder
    itself only discovers exhaustion mid-build, after the old contents
    are gone."""
    per = _per_chunk(geo, fill)
    total = max_level  # the per-level initial (−∞) chunks
    level = 0
    n = int(n_keys)
    while n > 0:
        c = -(-n // per)
        total += c
        if c <= 1 or level + 1 >= max_level:
            break
        n = c - 1  # every chunk after the first promotes its min key
        level += 1
    return total


def rebuild_into(sl, keys, values=None,
                 rng: np.random.Generator | None = None,
                 fill: float = DEFAULT_FILL) -> dict:
    """Non-destructive-on-failure wrapper around
    :func:`bulk_build_into` (same ``keys``/``values`` arrays) — the
    migration executor's rebuild primitive (DESIGN.md §16).

    Two prechecks run *before* the pool is formatted, so a refused
    rebuild leaves the structure exactly as it was:

    * **live pins** — a rebuild rewrites chunk words through ``raw()``
      views that bypass the epoch write barrier, which would tear any
      pinned snapshot's pre-images; callers must drain pins first,
    * **capacity** — :func:`plan_chunks` worst-cases the chunk budget;
      ``bulk_build_into`` itself only notices exhaustion after
      formatting (destroying the old contents).
    """
    keys = np.asarray(keys, dtype=np.int64)
    mgr = sl.ctx._epochs
    if mgr is not None and mgr.active_pins:
        raise RuntimeError(
            f"rebuild_into with {mgr.active_pins} live snapshot pin(s): "
            "the builder's raw writes bypass the epoch barrier and "
            "would tear pinned views")
    lay = sl.layout
    need = plan_chunks(sl.geo, lay.max_level, keys.size, fill)
    if need > lay.capacity_chunks:
        from .gfsl import suggest_capacity
        from .pool import OutOfChunks
        raise OutOfChunks(
            f"rebuild needs {need} chunks (worst case)",
            capacity=lay.capacity_chunks, allocated=lay.max_level,
            live_keys=keys.size,
            suggested_capacity=suggest_capacity(max(keys.size, 1),
                                                team_size=sl.geo.n))
    return bulk_build_into(sl, keys, values, rng=rng, fill=fill)


def warm_structure(sl) -> None:
    """Load the whole structure's lines into the simulated L2 (so a
    structure that fits starts resident, as after a real prefill run)."""
    allocated = sl.pool.allocated(sl.ctx.mem)
    sl.ctx.tracer.warm_words(sl.layout.head_base,
                             sl.layout.chunks_base - sl.layout.head_base)
    sl.ctx.tracer.warm_words(sl.layout.chunks_base, allocated * sl.geo.n)
