"""The GFSL public API.

:class:`GFSL` owns a region of simulated device memory laid out by
:class:`~repro.core.pool.StructureLayout` and exposes the three skiplist
operations both as synchronous calls (``contains``/``insert``/``delete``,
each one simulated team-operation) and as generator factories
(``contains_gen``/…) for the concurrent interleaving scheduler and the
benchmark kernel launcher.

Extensions beyond the paper's operation set (used by the examples):
``min_key``/``pop_min`` (priority-queue support), ``range_query``, and a
stop-the-world ``compact`` (the paper's future-work reclamation scheme).
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceConfig
from ..gpu.kernel import GPUContext
from ..gpu.occupancy import KernelResources
from ..metrics.counters import MetricsCollector
from . import constants as C
from . import delete as _delete
from . import insert as _insert
from . import locks as _locks
from . import traversal as _traversal
from .chunk import ChunkGeometry, keys_vec, vals_vec
from .head import HeadArray
from .pool import ChunkPool, StructureLayout

# Register demand of the GFSL kernel, calibrated against Table 5.1 (the
# 8-warps-per-block row allocates 79 registers with no spillover).  One
# team per warp ⇒ lanes_per_op = 32; the per-op overhead covers op-array
# fetch, team synchronization and result write-back.
GFSL_KERNEL = KernelResources(regs_demanded=79, intrinsic_spill=0.0,
                              spill_accesses_per_reg=0.35,
                              lanes_per_op=32,
                              op_overhead_instructions=190.0,
                              divergence_replay=1.0)


class GFSL:
    """A GPU-friendly skiplist instance on a simulated device.

    Parameters
    ----------
    capacity_chunks:
        Size of the chunk memory pool.  Use
        :func:`suggest_capacity` to size it for an expected key count.
    team_size:
        Threads per team == entries per chunk (16 or 32 in the paper;
        anything in [8, 32] is accepted).
    p_chunk:
        Probability a split raises a key to the next level (Section 5.2
        found ≈1 best).
    ctx:
        An existing :class:`GPUContext` to share; by default the
        structure gets its own device sized to fit.  On a shared
        context the instance reserves its own memory region
        (``ctx.reserve``) unless an explicit ``base`` pins it — several
        instances co-locate on one device without overlapping.
    """

    #: The registry's capability flag (see ``StructureSpec.chunked``).
    chunked = True

    def __init__(self, capacity_chunks: int, team_size: int = 32,
                 p_chunk: float = C.DEFAULT_P_CHUNK,
                 merge_divisor: int = C.MERGE_DIVISOR,
                 ctx: GPUContext | None = None,
                 device: DeviceConfig | None = None,
                 base: int | None = None, seed: int = 0x5EED):
        if not 8 <= team_size <= 32:
            raise ValueError("team_size must be in [8, 32] (merge threshold "
                             "needs at least one live entry)")
        if not 0.0 <= p_chunk <= 1.0:
            raise ValueError("p_chunk must be a probability")
        if capacity_chunks < team_size + 2:
            raise ValueError("pool too small for the initial structure")
        self.geo = ChunkGeometry(team_size, merge_divisor=merge_divisor)
        self.p_chunk = p_chunk
        if base is None:
            if ctx is None:
                base = 0
            else:
                # Shared device: claim an aligned region of our own.
                # Reservations are line-aligned, so the region size can
                # be computed at base 0 (alignment padding is identical).
                words = StructureLayout(self.geo, max_level=team_size,
                                        capacity_chunks=capacity_chunks,
                                        base=0).total_words
                base = ctx.reserve(words)
        self.layout = StructureLayout(self.geo, max_level=team_size,
                                      capacity_chunks=capacity_chunks,
                                      base=base)
        if ctx is None:
            ctx = GPUContext(base + self.layout.total_words, device=device)
        self.ctx = ctx
        self.pool = ChunkPool(self.layout)
        self.pool.attach_mem(ctx.mem)
        self.head = HeadArray(self.layout)
        self.rng = np.random.default_rng(seed)
        #: The one counter block; assign a fresh collector to open an
        #: observation window.
        self.metrics = MetricsCollector()
        # Chaos/robustness knobs: `chaos` holds an attached
        # repro.chaos.faults.FaultInjector (None = inert injection
        # points); the limits bound lock spins and traversal restarts
        # (typed LockTimeout / RestartStorm instead of a silent hang).
        self.chaos = None
        self.lock_retry_limit = _locks.DEFAULT_LOCK_RETRY_LIMIT
        self.restart_limit = _traversal.DEFAULT_RESTART_LIMIT
        self._epoch_domain = None
        self._format()

    @property
    def epoch_domain(self):
        """This instance's region in the device epoch manager (lazy, so
        structures that never snapshot never touch the manager)."""
        if self._epoch_domain is None:
            lay = self.layout
            self._epoch_domain = self.ctx.epochs.register(
                lay.base, lay.chunks_base, self.geo.n,
                lay.base + lay.total_words)
        return self._epoch_domain

    # ------------------------------------------------------------------
    def _format(self) -> None:
        """Build the initial structure: one unlocked −∞ chunk per level,
        each pointing at the chunk below (Section 4.1)."""
        mem = self.ctx.mem
        self.pool.format(mem)
        L = self.layout.max_level
        self.pool.set_allocated(mem, L)
        level_chunks = list(range(L))  # chunk i hosts level i
        for level, ptr in enumerate(level_chunks):
            below = level_chunks[level - 1] if level > 0 else 0
            value = below if level > 0 else 0
            mem.write_word(self.layout.entry_addr(ptr, 0),
                           C.pack_kv(C.NEG_INF_KEY, value))
            mem.write_word(self.layout.entry_addr(ptr, self.geo.lock_idx),
                           C.UNLOCKED)
        self.head.format(mem, level_chunks)

    # -- generator factories (device functions) --------------------------
    def contains_gen(self, key: int):
        """Algorithm 4.1: lock-free membership test."""
        C.check_key(key)
        self.metrics.contains_calls += 1
        p_curr = yield from _traversal.search_down(self, key)
        found, _ = yield from _traversal.search_lateral(self, key, p_curr)
        return found

    def insert_gen(self, key: int, value: int = 0, hint=None):
        """Algorithm 4.5: bottom-up insertion with probabilistic raising.

        ``hint`` optionally carries a precomputed ``(found, path)`` from
        :meth:`vector_search` so the batch engine can skip the per-op
        traversal.  Checks at the call: a refused op yields no generator."""
        C.check_key(key)
        C.check_value(value)
        return _insert.insert(self, key, value, hint=hint)

    def delete_gen(self, key: int, hint=None):
        """Algorithm 4.11: top-down removal under the bottom lock."""
        C.check_key(key)
        return _delete.delete(self, key, hint=hint)

    def get_gen(self, key: int):
        """Lookup returning the associated value, or None.  Same
        traversal as Contains, but the winning lane shfl-broadcasts its
        value field."""
        C.check_key(key)
        p_curr = yield from _traversal.search_down(self, key)
        found, enc = yield from _traversal.search_lateral(self, key, p_curr)
        if not found:
            return None
        kvs = yield from _traversal.read_chunk(self, enc)
        from . import team as _team
        idx = _team.index_of_key(key, kvs, self.geo)
        if idx == C.NONE_TID:
            return None
        return int(vals_vec(kvs)[idx])

    # -- synchronous wrappers ---------------------------------------------
    def contains(self, key: int) -> bool:
        """Synchronous lock-free membership test."""
        return self.ctx.run(self.contains_gen(key))

    def insert(self, key: int, value: int = 0) -> bool:
        """Synchronous insert; False if the key already exists."""
        return self.ctx.run(self.insert_gen(key, value))

    def delete(self, key: int) -> bool:
        """Synchronous delete; False if the key is absent."""
        return self.ctx.run(self.delete_gen(key))

    def get(self, key: int):
        """Synchronous value lookup; None when absent."""
        return self.ctx.run(self.get_gen(key))

    # -- extensions ------------------------------------------------------
    def update_gen(self, key: int, value: int):
        """In-place value update for an existing key (extension).

        Locks the bottom-level enclosing chunk and rewrites the entry
        with one atomic 64-bit store — concurrent readers see either the
        old or the new pair, never a torn one.  Returns False if the key
        is absent.  Upper-level entries are untouched (their values are
        chunk pointers, not payloads).
        """
        C.check_key(key)
        C.check_value(value)
        from . import team as _team
        from .locks import find_and_lock_enclosing, unlock_chunk
        from ..gpu import events as _ev
        found, path = yield from _traversal.search_slow(self, key)
        if not found:
            return False
        ptr, kvs = yield from find_and_lock_enclosing(self, path[0], key)
        idx = _team.index_of_key(key, kvs, self.geo)
        if idx == C.NONE_TID:
            yield from unlock_chunk(self, ptr)
            return False
        yield _ev.WordWrite(self.layout.entry_addr(ptr, idx),
                            C.pack_kv(key, value))
        yield from unlock_chunk(self, ptr)
        return True

    def update(self, key: int, value: int) -> bool:
        """Synchronous in-place value rewrite."""
        return self.ctx.run(self.update_gen(key, value))

    def max_key_gen(self):
        """Largest user key in the structure, or None (extension)."""
        p_curr = yield from _traversal.search_down(self, C.MAX_USER_KEY)
        from .chunk import is_zombie, next_ptr
        ptr = p_curr
        best = None
        while True:
            kvs = yield from _traversal.read_chunk(self, ptr)
            if not is_zombie(kvs, self.geo):
                keys = keys_vec(kvs)[: self.geo.dsize]
                live = keys[(keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY)]
                if live.size:
                    best = int(live[-1])
            nxt = next_ptr(kvs, self.geo)
            if nxt == C.NULL_PTR:
                return best
            ptr = nxt

    def max_key(self):
        """Synchronous largest-user-key query."""
        return self.ctx.run(self.max_key_gen())

    def successor_gen(self, key: int):
        """Smallest key ≥ ``key`` with its value, or None (extension).

        A lock-free traversal to key's enclosing chunk followed by a
        lateral scan — one coalesced read usually suffices because the
        chunk holds the whole neighbourhood.
        """
        C.check_key(key)
        from .chunk import is_zombie, max_field, next_ptr
        p_curr = yield from _traversal.search_down(self, key)
        ptr = p_curr
        while True:
            kvs = yield from _traversal.read_chunk(self, ptr)
            if not is_zombie(kvs, self.geo):
                keys = keys_vec(kvs)[: self.geo.dsize]
                vals = vals_vec(kvs)[: self.geo.dsize]
                mask = (keys >= key) & (keys != C.EMPTY_KEY)
                hits = np.nonzero(mask)[0]
                if hits.size:
                    i = int(hits[0])
                    return int(keys[i]), int(vals[i])
            nxt = next_ptr(kvs, self.geo)
            if nxt == C.NULL_PTR:
                return None
            ptr = nxt

    def successor(self, key: int):
        """Synchronous successor query: smallest (k, v) with k >= key."""
        return self.ctx.run(self.successor_gen(key))

    def predecessor_gen(self, key: int):
        """Largest key ≤ ``key`` with its value, or None (extension).

        Runs the standard descent but keeps the best candidate seen at
        the bottom level: the enclosing-chunk walk already visits the
        chunk holding the predecessor (down pointers land at or left of
        it), so no back pointers are needed.
        """
        C.check_key(key)
        from .chunk import is_zombie, max_field, next_ptr
        p_curr = yield from _traversal.search_down(self, key)
        ptr = p_curr
        best = None
        while True:
            kvs = yield from _traversal.read_chunk(self, ptr)
            if not is_zombie(kvs, self.geo):
                keys = keys_vec(kvs)[: self.geo.dsize]
                vals = vals_vec(kvs)[: self.geo.dsize]
                # key <= MAX_USER_KEY already excludes EMPTY entries.
                mask = (keys <= key) & (keys != C.NEG_INF_KEY)
                hits = np.nonzero(mask)[0]
                if hits.size:
                    i = int(hits[-1])
                    best = (int(keys[i]), int(vals[i]))
                if max_field(kvs, self.geo) >= key:
                    return best
            nxt = next_ptr(kvs, self.geo)
            if nxt == C.NULL_PTR:
                return best
            ptr = nxt

    def predecessor(self, key: int):
        """Synchronous predecessor query: largest (k, v) with k <= key."""
        return self.ctx.run(self.predecessor_gen(key))

    # -- batch API ---------------------------------------------------------
    def vector_contains(self, keys, tracer=None):
        """Lock-step membership test for many keys at once on quiescent
        memory — the structure's vectorized read kernel, used by the
        batch engine's ``VectorizedBackend`` (see :mod:`repro.core.vector`).
        Pass ``tracer`` to keep cost accounting."""
        from .vector import vector_contains
        return vector_contains(self, keys, tracer=tracer)

    def vector_search(self, keys, tracer=None):
        """Lock-step ``search_slow`` for many keys on quiescent memory;
        returns ``(found, paths)`` usable as update hints (see
        :func:`repro.core.vector.vector_search`)."""
        from .vector import vector_search
        return vector_search(self, keys, tracer=tracer)

    def vector_update_wave(self, ops, keys, values, tracer=None):
        """Vectorized update critical sections for one wave of distinct
        keys on quiescent memory: conflict-free groups execute batched,
        everything else falls back to the hinted generator; returns
        ``(results, handled, found, paths)`` (see
        :func:`repro.core.vector.update_wave`)."""
        from .vector import update_wave
        return update_wave([self], None, ops, keys, values, tracer=tracer)

    def execute_batch(self, batch, backend="vectorized", commit="per-op"):
        """:func:`repro.engine.execute_batch` on this structure."""
        from ..engine import execute_batch
        return execute_batch(self, batch, backend, commit)

    def min_key_gen(self):
        """Smallest user key in the structure, or None (PQ support)."""
        head_words = yield from self.head.read_all()
        ptr = self.head.ptr_of(head_words, 0)
        while True:
            kvs = yield from _traversal.read_chunk(self, ptr)
            keys = keys_vec(kvs)[: self.geo.dsize]
            from .chunk import is_zombie, next_ptr
            if not is_zombie(kvs, self.geo):
                live = keys[(keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY)]
                if live.size:
                    return int(live[0])
            nxt = next_ptr(kvs, self.geo)
            if nxt == C.NULL_PTR:
                return None
            ptr = nxt

    def min_key(self):
        """Synchronous smallest-user-key query."""
        return self.ctx.run(self.min_key_gen())

    def pop_min_gen(self):
        """Delete-min: retry the (min, delete) pair until the delete wins
        the race (the Shavit–Lotan skiplist-PQ pattern)."""
        while True:
            k = yield from self.min_key_gen()
            if k is None:
                return None
            ok = yield from _delete.delete(self, k)
            if ok:
                return k

    def pop_min(self):
        """Synchronous delete-min; None when empty."""
        return self.ctx.run(self.pop_min_gen())

    def range_query(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Synchronous inclusive ordered window query — consistent by
        construction: rebased onto a one-shot snapshot epoch, so the
        result is the frozen state at the instant the query began.  The
        migration executor reads its source range through it
        (DESIGN.md §16), capturing concurrent writes as the delta."""
        with self.begin_snapshot() as snap:
            return snap.range_query(lo, hi, tracer=self.ctx.tracer)

    # -- snapshots (DESIGN.md §13) ----------------------------------------
    def begin_snapshot(self):
        """Pin the current epoch and return a frozen
        :class:`~repro.core.epoch.GFSLSnapshot` view (release it — or
        use it as a context manager — to let versions be reclaimed)."""
        from .epoch import GFSLSnapshot
        return GFSLSnapshot(self)

    def snapshot_view(self, epoch: int):
        """A frozen view at an externally pinned epoch — the cross-shard
        coordinator's hook (:class:`~repro.shard.ShardedMap` pins once
        on the shared manager and hands the epoch to every shard)."""
        from .epoch import GFSLSnapshot
        return GFSLSnapshot(self, epoch=epoch)

    # -- host-side utilities -----------------------------------------------
    def items(self) -> list[tuple[int, int]]:
        """Host-side snapshot of all (key, value) pairs (quiescent use)."""
        from .validate import bottom_items
        return bottom_items(self)

    def keys(self) -> list[int]:
        """Sorted live keys (host-side snapshot)."""
        return [k for k, _ in self.items()]

    def __len__(self) -> int:
        return len(self.items())

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    def zombie_count(self) -> int:
        """Chunks awaiting reclamation (host-side scan)."""
        from .validate import count_zombies
        return count_zombies(self)

    def compact(self) -> int:
        """Stop-the-world compaction between kernel launches — the
        reclamation scheme the paper leaves as future work (Section 4.1).
        Rebuilds the structure from the live bottom-level items and
        returns the number of chunks reclaimed."""
        mgr = self.ctx._epochs
        if mgr is not None and mgr.active_pins:
            raise RuntimeError(
                "compact() with live snapshot pins: the rebuild writes "
                "through raw() and would tear the pinned frozen images — "
                "release every snapshot first")
        from .bulk import bulk_build_into
        from .validate import level_kv
        keys, vals = level_kv(self, 0)
        before = self.pool.allocated(self.ctx.mem)
        self._format()
        bulk_build_into(self, keys, vals, rng=self.rng)
        after = self.pool.allocated(self.ctx.mem)
        return max(0, before - after)


def suggest_capacity(num_keys: int, team_size: int = 32,
                     headroom: float = 1.6) -> int:
    """Pool size that comfortably fits ``num_keys`` keys.

    Chunks run ~2/3 full in steady state ("chunks of size 16 hold an
    average of 10 keys ... size 32 ... 20 keys", Section 4.2.2); upper
    levels add ~1/fill per chunk, and splits/merges leave zombies behind,
    hence the headroom factor.
    """
    geo = ChunkGeometry(team_size)
    per_chunk = max(1, (2 * geo.dsize) // 3)
    bottom = -(-num_keys // per_chunk) + 1
    total = int(bottom * 1.1) + 2 * team_size  # upper levels + initial chunks
    return max(int(total * headroom), team_size + 16)
