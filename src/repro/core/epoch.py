"""Snapshot epochs: copy-on-first-write multiversioning (DESIGN.md §13).

The GFSL of the paper is linearizable per operation, but a long range
scan concurrent with splits and merges has no isolation — it can observe
a half-committed batch.  Jiffy (PAPERS.md) shows the fix for chunked
skiplists: version the chunks, let readers pin an *epoch*, and have
writers retire the pre-image of every chunk they touch the first time
they touch it in a newer epoch.

This module keeps the mechanism entirely **host-side**:

* The :class:`EpochManager` owns a global epoch counter and, per
  registered structure region (:class:`EpochDomain`), a map from *block*
  (one chunk, or the head region) to its last-modified epoch and any
  retained pre-images (:class:`~repro.core.chunk.ChunkVersion`).
* While at least one reader pin (or batch commit) is live, the manager
  installs itself as :attr:`GlobalMemory.write_barrier
  <repro.gpu.memory.GlobalMemory.write_barrier>` — a pre-mutation hook
  that copies a block's current image before its first mutation of the
  running epoch.  With no pins the hook is uninstalled and **no device
  word, no code path, and no allocation differs** from the pre-epoch
  simulator: the byte-identity suites pin this.
* A reader pinned at epoch E reads each block through
  :meth:`EpochManager.read_block`: the live image if the block was not
  modified after E, else the retained version whose epoch interval
  covers E.  Retired versions are reclaimed as soon as no pin needs
  them.

Batch commits reuse the same machinery: :meth:`EpochManager.commit`
bumps the epoch once for the whole batch, so every write of the batch
stamps into one epoch and a snapshot pinned *during* the commit sees the
pre-batch state — the batch publishes atomically at the single bump.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import constants as C
from .chunk import ChunkVersion, is_zombie, keys_vec, max_field, next_ptr, \
    select_version, vals_vec

#: Block id of a domain's head region (head array + pool counter + pad).
HEAD_BLOCK = -1


@dataclass(frozen=True)
class EpochDomain:
    """One structure's region of device memory, split into version
    blocks: the head region (``HEAD_BLOCK``) and one block per chunk
    (block id == chunk pointer)."""

    domain_id: int
    base: int           # first word of the region (head array start)
    data_base: int      # first chunk word (layout.chunks_base)
    block_words: int    # words per chunk block (geo.n)
    end: int            # one past the region's last word

    def block_range(self, block: int) -> tuple[int, int]:
        """Word-address interval ``[start, stop)`` of a block."""
        if block == HEAD_BLOCK:
            return self.base, self.data_base
        start = self.data_base + block * self.block_words
        return start, start + self.block_words

    def blocks_of(self, addr: int, n: int) -> list[int]:
        """Block ids covered by a write of ``n`` words at ``addr``."""
        blocks: list[int] = []
        hi = addr + n
        if addr < self.data_base:
            blocks.append(HEAD_BLOCK)
        if hi > self.data_base:
            first = (max(addr, self.data_base)
                     - self.data_base) // self.block_words
            last = (hi - 1 - self.data_base) // self.block_words
            blocks.extend(range(first, last + 1))
        return blocks


class EpochManager:
    """Global epoch word + per-block version retention for one device.

    Created lazily by :attr:`GPUContext.epochs
    <repro.gpu.kernel.GPUContext.epochs>`; co-located structures (the
    shards of a ``ShardedMap``) register their regions on the same
    manager, which is exactly what makes one :meth:`pin` a consistent
    **cross-shard** cut.
    """

    def __init__(self, mem):
        self.mem = mem
        self.epoch = 1
        self._domains: list[EpochDomain] = []
        self._bases: list[int] = []
        self._pins: dict[int, int] = {}      # pinned epoch -> reader count
        self._max_pinned = -1
        self._commit_depth = 0
        self._commit_base: int | None = None
        self._last_mod: dict[tuple[int, int], int] = {}
        self._versions: dict[tuple[int, int], list[ChunkVersion]] = {}
        # One stable bound-method object: fresh `self._barrier` accesses
        # would defeat the identity check in _uninstall.
        self._hook = self._barrier
        # Host-side observability (chaos + tests read these).
        self.retained = 0
        self.reclaimed = 0
        self.publications: dict[str, int] = {}

    # -- domains ---------------------------------------------------------
    def register(self, base: int, data_base: int, block_words: int,
                 end: int) -> EpochDomain:
        """Register a structure region; returns its :class:`EpochDomain`.
        Regions come from the context's bump allocator, so they never
        overlap and stay sorted by base."""
        dom = EpochDomain(domain_id=len(self._domains), base=base,
                          data_base=data_base, block_words=block_words,
                          end=end)
        i = bisect_left(self._bases, base)
        self._bases.insert(i, base)
        self._domains.insert(i, dom)
        return dom

    def _domain_of(self, addr: int) -> EpochDomain | None:
        i = bisect_right(self._bases, addr) - 1
        if i < 0:
            return None
        dom = self._domains[i]
        return dom if addr < dom.end else None

    # -- the write barrier ----------------------------------------------
    def _barrier(self, addr: int, n: int) -> None:
        """Pre-mutation hook: retire the covered blocks' pre-images the
        first time they are touched in the running epoch (only while a
        pin or commit needs them — the install/uninstall dance keeps the
        steady state hook-free)."""
        dom = self._domain_of(addr)
        if dom is None:
            return
        for block in dom.blocks_of(addr, n):
            key = (dom.domain_id, block)
            last = self._last_mod.get(key, 0)
            if last >= self.epoch:
                continue            # already stamped this epoch
            if self._max_pinned >= last or self._commit_depth > 0:
                start, stop = dom.block_range(block)
                image = self.mem.raw()[start:stop].copy()
                self._versions.setdefault(key, []).append(
                    ChunkVersion(last, self.epoch - 1, image))
                self.retained += 1
            self._last_mod[key] = self.epoch

    def _install(self) -> None:
        self.mem.write_barrier = self._hook

    def _uninstall(self) -> None:
        if self.mem.write_barrier is self._hook:
            self.mem.write_barrier = None

    # -- reader pins -----------------------------------------------------
    @property
    def active_pins(self) -> int:
        return sum(self._pins.values())

    def pin(self) -> int:
        """Pin the current epoch for reading and advance the world to the
        next one; returns the pinned epoch.  During a batch commit the
        pin lands on the pre-batch epoch instead (the batch is invisible
        until :meth:`end_commit`)."""
        if self._commit_depth > 0:
            e = self._commit_base
        else:
            e = self.epoch
            self.epoch += 1
        self._pins[e] = self._pins.get(e, 0) + 1
        if e > self._max_pinned:
            self._max_pinned = e
        self._install()
        return e

    def unpin(self, epoch: int) -> None:
        """Release one reader pin; reclaims every version no surviving
        pin (or open commit) still covers."""
        left = self._pins.get(epoch, 0) - 1
        if left < 0:
            raise ValueError(f"unpin of epoch {epoch} without a pin")
        if left:
            self._pins[epoch] = left
        else:
            del self._pins[epoch]
        if not self._pins:
            self._max_pinned = -1
            if self._commit_depth == 0:
                self._reclaim_all()
            return
        self._max_pinned = max(self._pins)
        self._prune()

    def _reclaim_all(self) -> None:
        self.reclaimed += sum(len(v) for v in self._versions.values())
        self._versions.clear()
        self._last_mod.clear()
        self._uninstall()

    def _prune(self) -> None:
        """Drop versions whose epoch interval covers no pinned epoch
        (keeping anything a pin during the open commit could need)."""
        pinned = sorted(self._pins)
        cb = self._commit_base if self._commit_depth > 0 else None
        for key, versions in list(self._versions.items()):
            keep = []
            for v in versions:
                i = bisect_left(pinned, v.first_epoch)
                needed = i < len(pinned) and pinned[i] <= v.last_epoch
                if needed or (cb is not None and v.covers(cb)):
                    keep.append(v)
                else:
                    self.reclaimed += 1
            if keep:
                self._versions[key] = keep
            else:
                del self._versions[key]

    # -- batch commits ---------------------------------------------------
    def begin_commit(self) -> int:
        """Open an atomic publish scope: every write until
        :meth:`end_commit` stamps into one fresh epoch, and pins taken
        meanwhile land on the pre-batch epoch.  Nestable (one bump for
        the outermost scope).  Returns the commit epoch."""
        if self._commit_depth == 0:
            self._commit_base = self.epoch
            self.epoch += 1
            self._install()
        self._commit_depth += 1
        return self.epoch

    def end_commit(self) -> None:
        if self._commit_depth <= 0:
            raise ValueError("end_commit without begin_commit")
        self._commit_depth -= 1
        if self._commit_depth == 0:
            self._commit_base = None
            if not self._pins:
                self._reclaim_all()
            else:
                self._prune()

    @property
    def committing(self) -> bool:
        """Whether a batch commit scope is open."""
        return self._commit_depth > 0

    def commit(self):
        """``with mgr.commit():`` — the batch-publish context manager."""
        return _CommitScope(self)

    # -- reading ---------------------------------------------------------
    def read_block(self, domain: EpochDomain, block: int,
                   epoch: int) -> np.ndarray:
        """The image of ``block`` as of ``epoch``: the live words when
        the block has not been modified since, else the retained
        pre-image covering the epoch."""
        key = (domain.domain_id, block)
        if self._last_mod.get(key, 0) <= epoch:
            start, stop = domain.block_range(block)
            return self.mem.raw()[start:stop].copy()
        v = select_version(self._versions.get(key, ()), epoch)
        if v is not None:
            return v.image
        # Defensive: a pin at `epoch` forces retention of every cover,
        # so this only happens for epochs that were never pinned.
        start, stop = domain.block_range(block)
        return self.mem.raw()[start:stop].copy()

    # -- observability ---------------------------------------------------
    def note_publish(self, kind: str) -> None:
        """Count a structural publication (split/merge/head swing/batch
        wave) — chaos and tests use these to assert the publish path is
        epoch-aware."""
        self.publications[kind] = self.publications.get(kind, 0) + 1


class _CommitScope:
    def __init__(self, mgr: EpochManager):
        self._mgr = mgr

    def __enter__(self):
        self._mgr.begin_commit()
        return self._mgr

    def __exit__(self, exc_type, exc, tb):
        self._mgr.end_commit()
        return False


# ---------------------------------------------------------------------------
# Frozen reader view over one GFSL instance.
# ---------------------------------------------------------------------------

class GFSLSnapshot:
    """A consistent frozen view of one GFSL at a pinned epoch.

    Owns its reader pin unless an ``epoch`` is supplied (the cross-shard
    coordinator pins once and hands the shared epoch to every shard's
    view).  Usable as a context manager; reading after :meth:`release`
    raises.  The walk follows the *frozen* bottom-level chain — every
    chunk image is the one current at the pinned epoch, so concurrent
    splits, merges and inserts are invisible by construction.
    """

    def __init__(self, sl, epoch: int | None = None):
        self.sl = sl
        self._mgr = sl.ctx.epochs
        self._domain = sl.epoch_domain
        self._owns_pin = epoch is None
        self.epoch = self._mgr.pin() if epoch is None else epoch
        self._released = False

    # -- lifecycle -------------------------------------------------------
    def release(self) -> None:
        if not self._released:
            self._released = True
            if self._owns_pin:
                self._mgr.unpin(self.epoch)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def _block(self, block: int) -> np.ndarray:
        if self._released:
            raise RuntimeError("snapshot read after release")
        return self._mgr.read_block(self._domain, block, self.epoch)

    # -- the frozen walk -------------------------------------------------
    def _bottom_head_ptr(self) -> int:
        head = self._block(HEAD_BLOCK)
        lay = self.sl.layout
        return int(head[lay.head_addr(0) - lay.base]) >> 32

    def iter_chunk_pairs(self, lo: int, hi: int, tracer=None):
        """Yield ``(key, value)`` pairs in ``[lo, hi]`` in ascending key
        order from the frozen bottom chain.

        The frozen images include mid-operation transients — zombie
        chunks (data skipped; survivors live in the right neighbour),
        merge targets whose migrated entries sit *unsorted* at the end
        slots, and split/shift duplicates — so each chunk's hits are
        sorted and a strictly-increasing key guard dedupes across chunk
        boundaries.  Charged to ``tracer`` as coalesced chunk reads.
        """
        sl = self.sl
        geo = sl.geo
        ptr = self._bottom_head_ptr()
        last = lo - 1
        seen: set[int] = set()
        while ptr != C.NULL_PTR and ptr not in seen:
            seen.add(ptr)
            kvs = self._block(ptr)
            if tracer is not None:
                tracer.access_words(sl.layout.chunk_addr(ptr), geo.n,
                                    coalesced=True)
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

    # -- queries ---------------------------------------------------------
    def range_query(self, lo: int, hi: int,
                    tracer=None) -> list[tuple[int, int]]:
        """All frozen (key, value) pairs with lo ≤ key ≤ hi, in order."""
        if lo > hi:
            return []
        return list(self.iter_chunk_pairs(lo, hi, tracer=tracer))

    def items(self, tracer=None) -> list[tuple[int, int]]:
        """Every frozen (key, value) pair, in order."""
        return list(self.iter_chunk_pairs(C.MIN_USER_KEY, C.MAX_USER_KEY,
                                          tracer=tracer))

    def keys(self, tracer=None) -> list[int]:
        return [k for k, _ in self.iter_chunk_pairs(
            C.MIN_USER_KEY, C.MAX_USER_KEY, tracer=tracer)]
