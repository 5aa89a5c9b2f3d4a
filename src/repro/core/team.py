"""Team-cooperative decision functions (Algorithms 4.3 and friends).

Every function here is *pure* warp math: it takes the team's snapshot of
a chunk (the per-lane registers after a coalesced read) and combines the
lanes' votes with ballot/shfl exactly as the paper specifies.  The
precedence rule — take the **highest** tId that voted true, with the
NEXT thread outranking all DATA threads and the LOCK thread always
voting false — is what makes concurrent traversals safe while inserts
and deletes shift entries (Sections 4.2.2, 4.2.3).

The docstrings state each decision as that ballot/clz precedence; the
bodies compute the same answer straight from the snapshot.  NEXT is the
highest lane that can vote (LOCK never does), so a NEXT vote decides
alone; otherwise one ``nonzero`` over the DATA lanes' votes gives the
highest (or lowest) voter, and a shfl is one word read.  The
ballot-per-lane bodies live on as the test oracle in
``tests/core/ballot_team.py``.

Memory access never happens here; the traversal/update generators own
that.
"""

from __future__ import annotations

import numpy as np

from . import constants as C
from .chunk import ChunkGeometry, is_zombie, max_field

_KEY_MASK = np.uint64(C.MASK32)


def _data_keys(kvs: np.ndarray, geo: ChunkGeometry) -> np.ndarray:
    """The DATA lanes' key fields as int64, so comparisons with Python
    ints behave naturally."""
    return (kvs[: geo.dsize] & _KEY_MASK).view(np.int64)


def _highest_voter(votes: np.ndarray) -> int:
    """``32 - clz(ballot(votes)) - 1``, or ``NONE_TID`` if none voted."""
    lanes = votes.nonzero()[0]
    return int(lanes[-1]) if len(lanes) else C.NONE_TID


def tid_for_next_step(k: int, kvs: np.ndarray, geo: ChunkGeometry) -> int:
    """Algorithm 4.3 ``getTidForNextStep``.

    DATA lane *i* votes true iff its key ≤ k (an EMPTY key, being the
    largest encodable value, always votes false for user keys); the NEXT
    lane votes true iff the chunk max < k (lateral step needed); LOCK
    votes false.  Returns the highest true lane, ``geo.next_idx`` for a
    lateral step, or ``NONE_TID`` for a backtrack.
    """
    if max_field(kvs, geo) < k:
        return geo.next_idx
    return _highest_voter(_data_keys(kvs, geo) <= k)


def tid_with_equal_key(k: int, kvs: np.ndarray, geo: ChunkGeometry) -> int:
    """``isTidWithEqualKey`` used by the bottom-level lateral search
    (Algorithm 4.4): DATA lanes vote on equality, NEXT still votes for
    the lateral step, precedence to higher lanes."""
    if max_field(kvs, geo) < k:
        return geo.next_idx
    return _highest_voter(_data_keys(kvs, geo) == k)


def tid_of_down_step(k: int, kvs: np.ndarray, geo: ChunkGeometry) -> int:
    """Backtrack helper (``getTidOfDownStep``): the highest DATA lane
    whose key ≤ k; NEXT is not eligible (we already know max < k)."""
    return _highest_voter(_data_keys(kvs, geo) <= k)


def ptr_from_tid(tid: int, kvs: np.ndarray) -> int:
    """``getPtrFromTid``: shfl the value field (down pointer / next
    pointer) out of lane ``tid``; an out-of-range lane yields 0, the
    shfl "default value" (see :func:`repro.gpu.intrinsics.shfl`)."""
    if 0 <= tid < kvs.shape[0]:
        return int(kvs[tid]) >> 32
    return 0


def chunk_contains(k: int, kvs: np.ndarray, geo: ChunkGeometry) -> bool:
    """Ballot over DATA equality — used after locking (Algorithm 4.5)."""
    return bool((_data_keys(kvs, geo) == k).any())


def insertion_idx(k: int, kvs: np.ndarray, geo: ChunkGeometry) -> int:
    """``getInsertionIdx``: the lowest DATA lane whose key > k — where k
    belongs in the sorted data array (EMPTY keys compare greater than
    every user key, so an empty slot is a valid landing spot)."""
    lanes = (_data_keys(kvs, geo) > k).nonzero()[0]
    if not len(lanes):
        raise AssertionError("insertion into a chunk with no room — caller "
                             "must split first")
    return int(lanes[0])


def index_of_key(k: int, kvs: np.ndarray, geo: ChunkGeometry) -> int:
    """Lane holding key ``k`` (highest, per the precedence rule), or
    ``NONE_TID``."""
    return _highest_voter(_data_keys(kvs, geo) == k)


def chunk_not_enclosing(k: int, kvs: np.ndarray, geo: ChunkGeometry) -> bool:
    """A chunk encloses k iff it is non-zombie with max ≥ k
    (Section 4.1, "Enclosing Chunks")."""
    return is_zombie(kvs, geo) or max_field(kvs, geo) < k
