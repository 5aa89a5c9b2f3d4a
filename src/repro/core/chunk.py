"""Chunk geometry and snapshot helpers.

A chunk of size ``N`` (the team size) occupies ``N`` consecutive 64-bit
words (Figure 3.1):

====================  =======================================
entries 0 .. N-3      DATA: sorted key-value pairs
entry N-2 (NEXT)      max key (lower 32b) | next pointer (upper 32b)
entry N-1 (LOCK)      lock state (UNLOCKED / LOCKED / ZOMBIE)
====================  =======================================

Team code receives a chunk as an ``N``-word numpy snapshot (the result
of one coalesced ``ChunkRead``); the helpers below give the lane-wise
views (keys, values) the cooperative functions operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants as C


class ChunkGeometry:
    """Sizes and entry indexes for a given team/chunk size ``n``.

    ``merge_divisor`` sets the underfull bound: a removal leaving
    ≤ DSIZE/divisor live entries triggers a merge.  The paper uses 3
    ("DSIZE/3 in this work", §4.2.3); the divisor is exposed for the
    merge-threshold ablation.  It must keep at least one live entry
    below the bound (dsize // divisor ≥ 1) so the no-merge removal
    path always has a predecessor for the max-field update.
    """

    def __init__(self, n: int, merge_divisor: int = C.MERGE_DIVISOR):
        if n < 4:
            raise ValueError("chunk needs at least 2 data entries + NEXT + LOCK")
        if n > 32:
            raise ValueError("chunk cannot exceed a warp (32 entries)")
        self.n = n
        self.dsize = n - 2           # DSIZE: number of DATA entries
        self.next_idx = n - 2        # the NEXT thread's entry
        self.lock_idx = n - 1        # the LOCK thread's entry
        if merge_divisor < 2:
            raise ValueError("merge_divisor must be >= 2")
        if self.dsize // merge_divisor < 1:
            raise ValueError(
                f"merge_divisor {merge_divisor} leaves no merge band for "
                f"dsize {self.dsize}")
        self.merge_divisor = merge_divisor
        # Merge threshold: removal leaving <= dsize/divisor entries merges.
        self.merge_threshold = self.dsize // merge_divisor
        # A split moves the top dsize/2 entries to the new chunk.
        self.split_keep = self.dsize // 2

    @property
    def bytes(self) -> int:
        return self.n * 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChunkGeometry(n={self.n}, dsize={self.dsize})"


# ---------------------------------------------------------------------------
# Snapshot views.  All return plain int64 arrays so comparisons with Python
# ints behave naturally (uint64 comparisons with negative ints do not).
# ---------------------------------------------------------------------------

def keys_vec(kvs: np.ndarray) -> np.ndarray:
    """Per-lane key fields (all N entries, including NEXT's max field)."""
    return (kvs & np.uint64(C.MASK32)).astype(np.int64)


def vals_vec(kvs: np.ndarray) -> np.ndarray:
    """Per-lane value fields (for NEXT, the next pointer)."""
    return (kvs >> np.uint64(32)).astype(np.int64)


def data_keys(kvs: np.ndarray, geo: ChunkGeometry) -> np.ndarray:
    return keys_vec(kvs)[: geo.dsize]


def max_field(kvs: np.ndarray, geo: ChunkGeometry) -> int:
    return int(kvs[geo.next_idx]) & C.MASK32


def next_ptr(kvs: np.ndarray, geo: ChunkGeometry) -> int:
    return int(kvs[geo.next_idx]) >> 32


def lock_state(kvs: np.ndarray, geo: ChunkGeometry) -> int:
    return int(kvs[geo.lock_idx])


def is_zombie(kvs: np.ndarray, geo: ChunkGeometry) -> bool:
    return lock_state(kvs, geo) == C.ZOMBIE


def is_locked(kvs: np.ndarray, geo: ChunkGeometry) -> bool:
    return lock_state(kvs, geo) != C.UNLOCKED


def num_live_entries(kvs: np.ndarray, geo: ChunkGeometry) -> int:
    """Number of non-EMPTY data entries (−∞ counts: it occupies a slot)."""
    return int(np.count_nonzero(data_keys(kvs, geo) != C.EMPTY_KEY))


def live_data(kvs: np.ndarray, geo: ChunkGeometry) -> np.ndarray:
    """The non-EMPTY data entries, in array order."""
    dk = data_keys(kvs, geo)
    return kvs[: geo.dsize][dk != C.EMPTY_KEY]


def has_user_keys(kvs: np.ndarray, geo: ChunkGeometry) -> bool:
    """True if the chunk holds at least one real (user) key — the
    *utilized* test of the head array's per-level chunk counters.  A
    chunk holding only −∞ (a level's initial chunk) or nothing (a
    drained last chunk) is not utilized."""
    dk = data_keys(kvs, geo)
    return bool(np.any((dk != C.EMPTY_KEY) & (dk != C.NEG_INF_KEY)))


def pack_next(max_key: int, ptr: int) -> int:
    """Pack the NEXT entry (max field + next pointer) into one word, so
    split can update both 'with a single atomic write' (Section 4.2.2)."""
    return C.pack_kv(max_key, ptr)


# ---------------------------------------------------------------------------
# Multiversion metadata (snapshot epochs, DESIGN.md §13).
#
# A chunk image retired by copy-on-first-write-per-epoch is retained as a
# ChunkVersion covering the closed epoch interval [first_epoch, last_epoch]
# during which it was the chunk's live contents.  Readers pinned at epoch E
# select the version whose interval contains E; writers never see versions
# at all (the live array is always current).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkVersion:
    """A retired chunk image valid for epochs first_epoch..last_epoch."""

    first_epoch: int
    last_epoch: int
    image: np.ndarray        # frozen copy of the chunk's n words

    def covers(self, epoch: int) -> bool:
        return self.first_epoch <= epoch <= self.last_epoch


def select_version(versions, epoch: int):
    """The retained version covering ``epoch``, or None (live image is
    current for that epoch).  Versions are kept in ascending epoch order
    with disjoint intervals, so the first cover wins."""
    for v in versions:
        if v.covers(epoch):
            return v
    return None
