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
* A reader pinned at epoch E asks :meth:`EpochManager.retained_image`
  for each block: None when the block was not modified after E (the
  live words are E's), else the retained version whose epoch interval
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
from .chunk import ChunkVersion, keys_vec, select_version, vals_vec
from .validate import _pool

#: Block id of a domain's head region (head array + pool counter + pad).
HEAD_BLOCK = -1


class EpochNotRetained(LookupError):
    """A frozen read of a block that changed after an epoch no pin held:
    the image the epoch saw was never retained."""


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
    def retained_image(self, domain: EpochDomain, block: int,
                       epoch: int) -> np.ndarray | None:
        """The retained pre-image of ``block`` as of ``epoch``, or None
        when the live words are that epoch's (the block has not been
        modified since).  A pin at ``epoch`` retains every cover, so a
        block changed after an epoch with no cover means the epoch was
        not pinned when the block changed: :class:`EpochNotRetained`."""
        key = (domain.domain_id, block)
        if self._last_mod.get(key, 0) <= epoch:
            return None
        v = select_version(self._versions.get(key, ()), epoch)
        if v is None:
            raise EpochNotRetained(
                f"block {block} of domain {domain.domain_id} changed at "
                f"epoch {self._last_mod[key]} and no retained version "
                f"covers epoch {epoch} (not pinned while it changed)")
        return v.image


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

    # -- the frozen walk -------------------------------------------------
    def _chase(self, hi: int):
        """Phase one of the frozen walk: follow the bottom chain from the
        frozen head's level-0 pointer, reading only each chunk's NEXT
        and LOCK words — in place when the live words are the epoch's,
        else from the retained image.  Stops at NULL, at a chunk already
        visited, or after the first non-zombie chunk whose max exceeds
        ``hi`` (every later chunk holds larger keys only).

        Returns ``(visited, live, patches)``: the visited pointers in
        chain order, the non-zombie ones among them, and a ``(row,
        image)`` pair for each non-zombie chunk read from a retained
        image, ``row`` indexing ``live``."""
        if self._released:
            raise RuntimeError("snapshot read after release")
        mgr, dom, epoch = self._mgr, self._domain, self.epoch
        geo, lay = self.sl.geo, self.sl.layout
        word = self.sl.ctx.mem.raw().item
        head = mgr.retained_image(dom, HEAD_BLOCK, epoch)
        addr = lay.head_addr(0)
        ptr = (word(addr) if head is None
               else int(head[addr - dom.base])) >> 32
        n, next_at, lock_at = geo.n, geo.next_idx, geo.lock_idx
        visited: dict[int, None] = {}
        live: list[int] = []
        patches: list[tuple[int, np.ndarray]] = []
        while ptr != C.NULL_PTR and ptr not in visited:
            visited[ptr] = None
            image = mgr.retained_image(dom, ptr, epoch)
            if image is None:
                at = dom.data_base + ptr * n
                nxt, lock = word(at + next_at), word(at + lock_at)
            else:
                nxt, lock = int(image[next_at]), int(image[lock_at])
            if lock != C.ZOMBIE:
                if image is not None:
                    patches.append((len(live), image))
                live.append(ptr)
                if nxt & C.MASK32 > hi:
                    break
            ptr = nxt >> 32
        return list(visited), live, patches

    def _walk(self, lo: int, hi: int, tracer=None):
        """The frozen pairs in ``[lo, hi]`` as ascending key and value
        arrays: the chain chase, then one pass over the data rows of
        every visited non-zombie chunk.

        The frozen images include mid-operation transients — zombie
        chunks (data skipped; survivors live in the right neighbour),
        merge targets whose migrated entries sit *unsorted* at the end
        slots, and split/shift duplicates — so each row's hits are
        stably sorted and a strictly-increasing key guard dedupes across
        chunk boundaries.  Charged to ``tracer`` as one coalesced chunk
        read per visited chunk, in chain order."""
        visited, live, patches = self._chase(hi)
        sl = self.sl
        n, dsize = sl.geo.n, sl.geo.dsize
        if tracer is not None:
            for ptr in visited:
                tracer.access_words(sl.layout.chunk_addr(ptr), n,
                                    coalesced=True)
        kvs = _pool(sl)[np.asarray(live, dtype=np.intp), :dsize]
        for row, image in patches:
            kvs[row] = image[:dsize]
        keys = keys_vec(kvs)
        mask = (keys >= lo) & (keys <= hi)
        hit = mask.any(axis=1)
        kvs, keys, mask = kvs[hit], keys[hit], mask[hit]
        # Each row's hits in stable key order; misses sort past every
        # 32-bit key.
        order = np.argsort(np.where(mask, keys, C.MASK32 + 1), axis=1,
                           kind="stable")
        picked = np.take_along_axis(mask, order, axis=1)
        keys = np.take_along_axis(keys, order, axis=1)[picked]
        kvs = np.take_along_axis(kvs, order, axis=1)[picked]
        # A candidate survives only above every earlier one (and lo - 1).
        floor = np.maximum.accumulate(np.concatenate(([lo - 1], keys[:-1])))
        keep = keys > floor
        return keys[keep], vals_vec(kvs[keep])

    # -- queries ---------------------------------------------------------
    def range_query(self, lo: int, hi: int,
                    tracer=None) -> list[tuple[int, int]]:
        """All frozen (key, value) pairs with lo ≤ key ≤ hi, in order."""
        C.check_key(lo)
        C.check_key(hi)
        if lo > hi:
            return []
        keys, vals = self._walk(lo, hi, tracer=tracer)
        return list(zip(keys.tolist(), vals.tolist()))

    def items(self, tracer=None) -> list[tuple[int, int]]:
        """Every frozen (key, value) pair, in order."""
        return self.range_query(C.MIN_USER_KEY, C.MAX_USER_KEY,
                                tracer=tracer)

    def keys(self, tracer=None) -> list[int]:
        return self._walk(C.MIN_USER_KEY, C.MAX_USER_KEY,
                          tracer=tracer)[0].tolist()
