"""The team decisions, ``HeadArray`` accessors, chunk field reads and
``intrinsics.ballot`` against the ballot-per-lane oracle in
``ballot_team``: the same lane, pointer or error on every snapshot.

Snapshots have 4-32 lanes and are drawn unsorted, with duplicate keys,
EMPTY and NEG_INF keys, every lock state (and garbage lock words), and
``k`` at the edges of the key space.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core import team
from repro.core.chunk import ChunkGeometry, max_field, next_ptr
from repro.core.head import HeadArray
from repro.gpu import intrinsics as intr
from tests.core import ballot_team as oracle

EDGE_KEYS = [C.NEG_INF_KEY, C.MIN_USER_KEY, 2, 3, C.MAX_USER_KEY,
             C.EMPTY_KEY]
keys = st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, 12))
ptrs = st.one_of(st.sampled_from([0, 1, C.NULL_PTR]),
                 st.integers(0, C.MASK32))
lock_words = st.one_of(
    st.sampled_from([C.UNLOCKED, C.LOCKED, C.ZOMBIE]),
    st.integers(0, 2**64 - 1))
probes = st.one_of(st.sampled_from([-1, *EDGE_KEYS, C.EMPTY_KEY + 1]),
                   st.integers(0, 13))


@st.composite
def snapshots(draw):
    n = draw(st.integers(4, 32))
    words = [C.pack_kv(draw(keys), draw(ptrs)) for _ in range(n - 1)]
    words.append(draw(lock_words))
    # merge_divisor 2 keeps n = 4 (two DATA lanes) a legal geometry.
    return ChunkGeometry(n, merge_divisor=2), np.array(words,
                                                        dtype=np.uint64)


def _same(new, ref, *args):
    """Equal results, or the same exception type from both."""
    try:
        want = ref(*args)
    except (AssertionError, ValueError) as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return
    assert new(*args) == want


@settings(max_examples=600, deadline=None)
@given(snap=snapshots(), k=probes)
@example(snap=(ChunkGeometry(4, merge_divisor=2),
               np.array([C.EMPTY_KV, C.EMPTY_KV,
                         C.pack_kv(C.EMPTY_KEY, C.NULL_PTR), C.LOCKED],
                        dtype=np.uint64)), k=C.MAX_USER_KEY)
def test_decisions_match_oracle(snap, k):
    geo, kvs = snap
    for name in ("tid_for_next_step", "tid_with_equal_key",
                 "tid_of_down_step", "chunk_contains", "insertion_idx",
                 "index_of_key"):
        _same(getattr(team, name), getattr(oracle, name), k, kvs, geo)
    _same(max_field, oracle.max_field, kvs, geo)
    _same(next_ptr, oracle.next_ptr, kvs, geo)


@settings(max_examples=300, deadline=None)
@given(snap=snapshots(), tid=st.integers(-2, 33))
def test_shfl_reads_match_oracle(snap, tid):
    _geo, kvs = snap
    assert team.ptr_from_tid(tid, kvs) == oracle.ptr_from_tid(tid, kvs)


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.one_of(st.just(0), st.integers(1, C.MASK32)),
                       min_size=1, max_size=32),
       ptr_words=st.data(), level=st.integers(-2, 33))
def test_head_reads_match_oracle(counts, ptr_words, level):
    words = np.array([C.pack_kv(c, ptr_words.draw(ptrs)) for c in counts],
                     dtype=np.uint64)
    head = HeadArray(layout=None)      # the accessors read no layout
    assert head.height_of(words) == oracle.height_of(words)
    assert head.ptr_of(words, level) == oracle.ptr_of(words, level)


@settings(max_examples=300, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=34),
       mask=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_ballot_matches_oracle(flags, mask):
    _same(intr.ballot, oracle.ballot, np.array(flags, dtype=bool), mask)
