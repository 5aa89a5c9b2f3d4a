"""The head array: per-level entry pointers and chunk counters.

"The structure initially consists of a single unlocked chunk in each
level, containing the −∞ key and a pointer to the chunk in the level
below.  The head array is initialized to point to these chunks.  Each
head array pointer is associated with a counter of the number of
utilized chunks in the level... used to keep track of the highest level
currently in use, and thus to avoid traversal of empty levels"
(Section 4.1).

Each level's pointer and counter are packed into one 64-bit word
(counter in the lower 32 bits) so a team reads the whole head array in
one coalesced transaction and resolves the height with a single ballot —
the ``getHeight``/``firstChunkAtLevel`` cooperative functions of
Algorithm 4.2.

Counter discipline: the counter may transiently *over*-count utilized
chunks but must never under-count.  ``height_of`` readers skip levels
with a zero counter, and top-down deletes rely on the height to sweep a
key's upper-level copies — an under-count strands orphan upper-level
keys.  Mutators therefore increment *before* publishing a chunk (splits,
first key at a level) and decrement *before* releasing the lock that
serializes repopulation (last-chunk drain) or after the zombie mark
(merges).

Epoch contract (DESIGN.md §13): the whole head region — every packed
level word plus the pool counter — is one version *block* of the
snapshot-epoch manager.  All head mutations go through the
``GlobalMemory`` mutators, so the write barrier retires the pre-image
before the first head write of each epoch and a pinned reader resolves
its bottom-level entry pointer from a frozen head image; head-pointer
swings off zombie first chunks (``replace_first_chunk``) are therefore
invisible to snapshots, like every other publication.
"""

from __future__ import annotations

import numpy as np

from ..gpu import events as ev
from . import constants as C
from .pool import StructureLayout

_COUNT_MASK = np.uint64(C.MASK32)


class HeadArray:
    """Cooperative accessors over the packed head words."""

    def __init__(self, layout: StructureLayout):
        self.layout = layout

    # -- host-side initialization ---------------------------------------
    def format(self, mem, level_chunks: list[int]) -> None:
        """Point level ``i`` at ``level_chunks[i]`` with a zero counter."""
        for level in range(self.layout.max_level):
            mem.write_word(self.layout.head_addr(level),
                           C.pack_kv(0, level_chunks[level]))

    # -- cooperative reads ----------------------------------------------
    def read_all(self):
        """One coalesced read of the head array; returns the snapshot.

        Each thread reads the word of the level matching its tId
        ("Each thread reads a separate space in the head array").
        """
        words = yield ev.ChunkRead(self.layout.head_base, self.layout.max_level)
        return words

    def height_of(self, words: np.ndarray) -> int:
        """Highest level whose chunk counter is non-zero (ballot + clz),
        found with one ``nonzero`` over the counters.

        Returns 0 when every counter is zero — traversal then starts at
        the bottom level.
        """
        levels = (words & _COUNT_MASK).nonzero()[0]
        return int(levels[-1]) if len(levels) else 0

    def ptr_of(self, words: np.ndarray, level: int) -> int:
        """shfl the head pointer of ``level`` out of the snapshot (0 for
        a level outside it, the shfl default value)."""
        if 0 <= level < words.shape[0]:
            return int(words[level]) >> 32
        return 0

    def get_height(self):
        words = yield from self.read_all()
        return self.height_of(words)

    def first_chunk_at_level(self, level: int):
        words = yield from self.read_all()
        return self.ptr_of(words, level)

    # -- device-side updates --------------------------------------------
    def increment_chunks(self, level: int):
        """Counter lives in the low 32 bits, so an atomicAdd of 1 bumps it
        without disturbing the pointer."""
        yield ev.AtomicAdd(self.layout.head_addr(level), 1)

    def decrement_chunks(self, level: int):
        # Two's-complement add of -1 confined to the low word would borrow
        # into the pointer half, so decrement via CAS on the packed word.
        addr = self.layout.head_addr(level)
        while True:
            old = yield ev.WordRead(addr)
            count = old & C.MASK32
            if count == 0:
                return
            new = (old & ~C.MASK32) | (count - 1)
            got = yield ev.WordCAS(addr, old, new)
            if got == old:
                return

    def is_level_empty(self, level: int):
        word = yield ev.WordRead(self.layout.head_addr(level))
        return (word & C.MASK32) == 0

    def replace_first_chunk(self, level: int, old_ptr: int, new_ptr: int):
        """Lazily swing the head pointer off a zombie first chunk
        (``updateHeadArray`` in Algorithm 4.6).  Best-effort CAS; a losing
        race is fine — some later traversal will retry."""
        addr = self.layout.head_addr(level)
        old = yield ev.WordRead(addr)
        if (old >> 32) != old_ptr:
            return False
        new = (old & C.MASK32) | (new_ptr << 32)
        got = yield ev.WordCAS(addr, old, new)
        return got == old
