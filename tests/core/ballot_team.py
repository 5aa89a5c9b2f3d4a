"""Reference oracle: the ballot-per-lane bodies of the team decisions.

``repro.core.team``, ``repro.core.chunk``, ``HeadArray`` and
``intrinsics.ballot`` compute each decision straight from the chunk
snapshot: the NEXT lane is checked first and the highest DATA lane that
votes comes from one ``nonzero``.  This module keeps the bodies they
replaced, which build a full-width flag array, pack it into a ballot
word lane by lane and take ``highest_set_lane``/``lowest_set_lane`` of
it: the ballot/clz precedence written out.  The identity fuzz asserts
the two agree on every snapshot.  Only tests import it.
"""

from __future__ import annotations

import numpy as np

from repro.core import constants as C
from repro.gpu import intrinsics as intr

BALLOT_BITS = 32


def ballot(flags, active_mask=None) -> int:
    flags = np.asarray(flags, dtype=bool)
    n = flags.shape[0]
    if n > BALLOT_BITS:
        raise ValueError("team larger than a warp")
    word = 0
    for i in range(n):
        if flags[i]:
            word |= 1 << i
    if active_mask is not None:
        word &= active_mask
    return word


def shfl(values, src_lane: int) -> int:
    values = np.asarray(values)
    if src_lane < 0 or src_lane >= values.shape[0]:
        return 0
    return int(values[src_lane])


def keys_vec(kvs):
    return (kvs & np.uint64(C.MASK32)).astype(np.int64)


def vals_vec(kvs):
    return (kvs >> np.uint64(32)).astype(np.int64)


def _highest(flags) -> int:
    bal = ballot(flags)
    return intr.highest_set_lane(bal) if bal else C.NONE_TID


def tid_for_next_step(k, kvs, geo) -> int:
    keys = keys_vec(kvs)
    flags = np.zeros(geo.n, dtype=bool)
    flags[: geo.dsize] = keys[: geo.dsize] <= k
    flags[geo.next_idx] = keys[geo.next_idx] < k
    return _highest(flags)


def tid_with_equal_key(k, kvs, geo) -> int:
    keys = keys_vec(kvs)
    flags = np.zeros(geo.n, dtype=bool)
    flags[: geo.dsize] = keys[: geo.dsize] == k
    flags[geo.next_idx] = keys[geo.next_idx] < k
    return _highest(flags)


def tid_of_down_step(k, kvs, geo) -> int:
    keys = keys_vec(kvs)
    flags = np.zeros(geo.n, dtype=bool)
    flags[: geo.dsize] = keys[: geo.dsize] <= k
    return _highest(flags)


def ptr_from_tid(tid, kvs) -> int:
    return shfl(vals_vec(kvs), tid)


def chunk_contains(k, kvs, geo) -> bool:
    return ballot(keys_vec(kvs)[: geo.dsize] == k) != 0


def insertion_idx(k, kvs, geo) -> int:
    lane = intr.lowest_set_lane(ballot(keys_vec(kvs)[: geo.dsize] > k))
    if lane < 0:
        raise AssertionError("insertion into a chunk with no room")
    return lane


def index_of_key(k, kvs, geo) -> int:
    return _highest(keys_vec(kvs)[: geo.dsize] == k)


def max_field(kvs, geo) -> int:
    return int(keys_vec(kvs)[geo.next_idx])


def next_ptr(kvs, geo) -> int:
    return int(vals_vec(kvs)[geo.next_idx])


def height_of(words) -> int:
    counts = (words & np.uint64(C.MASK32)).astype(np.int64)
    return max(intr.highest_set_lane(ballot(counts > 0)), 0)


def ptr_of(words, level: int) -> int:
    return shfl((words >> np.uint64(32)).astype(np.int64), level)
