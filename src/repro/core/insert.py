"""Insert path: Algorithms 4.5, 4.7, 4.9 (and Figures 4.2–4.4).

Insertion is bottom-up: the enclosing chunk at the bottom level stays
locked for the whole operation (so no other team can update the same key
concurrently), while each upper level is a short lock–insert–unlock
section.  A key ascends to level *i+1* only when its insertion split a
chunk at level *i*, with probability ``p_chunk``.
"""

from __future__ import annotations

from ..gpu import events as ev
from ..gpu import intrinsics as intr
from . import constants as C
from . import team
from .chunk import (has_user_keys, keys_vec, max_field, num_live_entries,
                    pack_next)
from .downptrs import update_down_ptrs
from .locks import find_and_lock_enclosing, lock_next_chunk, unlock_chunk
from .traversal import _injector, _note_publish, read_chunk, search_slow


def execute_insert(sl, ptr: int, kvs, k: int, v: int):
    """Algorithm 4.7 / Figure 4.3: shift entries greater than ``k`` one
    slot right, writing serially from the highest DATA index down to the
    insertion index so no existing key ever transiently disappears.

    Each lane's candidate value is its left neighbour's entry
    (``__shfl_up``); the lane at the insertion index substitutes
    ``(k, v)``.  Lanes whose candidate is EMPTY skip their write.
    """
    geo = sl.geo
    idx = team.insertion_idx(k, kvs, geo)
    shifted = intr.shfl_up(kvs[: geo.dsize], 1)
    keys = keys_vec(kvs)
    new_kv = C.pack_kv(k, v)
    for i in range(geo.dsize - 1, idx, -1):
        candidate = int(shifted[i])
        if (candidate & C.MASK32) == C.EMPTY_KEY:
            continue  # shifting an empty slot: nothing to write
        if keys[i] == (candidate & C.MASK32) and int(kvs[i]) == candidate:
            continue  # value already in place (idempotent slot)
        yield ev.WordWrite(sl.layout.entry_addr(ptr, i), candidate)
    yield ev.WordWrite(sl.layout.entry_addr(ptr, idx), new_kv)


def pre_split(sl, p_split: int, kvs):
    """Algorithm 4.9 ``preSplit``: lock the successor (unlinking zombie
    chains), allocate the new chunk, and point it at the successor.
    Returns ``(p_new, p_next, own_kvs)``."""
    geo = sl.geo
    p_next, _next_kvs, kvs = yield from lock_next_chunk(sl, p_split, kvs)
    p_new = yield from sl.pool.alloc()
    nxt = p_next if p_next is not None else C.NULL_PTR
    # The new chunk inherits the split chunk's max field; it is invisible
    # until pSplit's NEXT word is redirected, so a plain write is safe.
    yield ev.WordWrite(sl.layout.entry_addr(p_new, geo.next_idx),
                       pack_next(max_field(kvs, geo), nxt))
    return p_new, p_next, kvs


def split_copy(sl, p_split: int, kvs, p_new: int):
    """Algorithm 4.9 ``splitCopy``: move the top half of a full chunk to
    the new chunk, publish it with a single atomic NEXT-word write, then
    empty the moved slots (high lanes first, relying on traversal
    precedence).  Returns the threshold key (new max of ``p_split``)."""
    geo = sl.geo
    keys = keys_vec(kvs)
    thresh = int(keys[geo.split_keep - 1])
    moved = kvs[geo.split_keep: geo.dsize]
    # Populate the still-private new chunk with one coalesced store.
    yield ev.ChunkWrite(sl.layout.chunk_addr(p_new),
                        tuple(int(w) for w in moved))
    # One atomic write redirects pSplit's next pointer *and* lowers its
    # max field — the publication point of the split.
    yield ev.WordWrite(sl.layout.entry_addr(p_split, geo.next_idx),
                       pack_next(thresh, p_new))
    _note_publish(sl, "split")
    # Empty the moved entries, highest tId first.
    for i in range(geo.dsize - 1, geo.split_keep - 1, -1):
        yield ev.WordWrite(sl.layout.entry_addr(p_split, i), C.EMPTY_KV)
    return thresh


def split_insert(sl, p_split: int, kvs, k: int, v: int, level: int):
    """Algorithm 4.9 ``splitInsert``: split a full chunk and insert
    ``(k, v)`` into whichever half now encloses it.

    Returns ``(p_insert, raised_key, raised_chunk)`` where ``p_insert``
    is the (still locked) chunk holding ``k``; the other half and the
    locked successor are released here.  ``raised_key`` is the candidate
    for level *i+1* and ``raised_chunk`` the chunk its down pointer
    should name.
    """
    geo = sl.geo
    moved_keys = [int(x) for x in keys_vec(kvs)[geo.split_keep: geo.dsize]]
    p_new, p_next, kvs = yield from pre_split(sl, p_split, kvs)
    inj = _injector(sl)
    if inj is not None:
        # Chaos point stall_split: pause with the split chunk, its
        # successor, and the still-private new chunk all claimed.
        yield from inj.stall("stall_split")
    thresh = yield from split_copy(sl, p_split, kvs, p_new)
    if p_next is not None:
        yield from unlock_chunk(sl, p_next)

    p_insert = p_new if k > thresh else p_split
    ins_kvs = yield from read_chunk(sl, p_insert)
    yield from execute_insert(sl, p_insert, ins_kvs, k, v)

    if p_insert == p_split:
        yield from unlock_chunk(sl, p_new)
    else:
        yield from unlock_chunk(sl, p_split)

    # Which key ascends if the coin flip says so (Section 4.2.2): k
    # itself, at every level.  The paper's bottom-level choice of
    # max(k, minK of the new chunk) is racy when minK != k: minK's
    # bottom-level entry lives in the new chunk, which is unlocked by
    # now, so a concurrent delete(minK) — finding no upper-level
    # instance yet — can remove it from level 0 while we raise it,
    # leaving an orphan upper-level key (subset-invariant violation;
    # found by the chaos gate, campaign seed 3).  k is covered by the
    # bottom lock until the whole insert completes, so raising k keeps
    # every step protected.
    raised_key = k
    raised_chunk = p_insert

    # Repair level-(i+1) down pointers of the keys that moved to pNew.
    # k itself cannot be in level i+1 yet (insertion is bottom-up).
    yield from update_down_ptrs(sl, level, moved_keys, p_new)
    return p_insert, raised_key, raised_chunk


def insert_to_level(sl, level: int, p_enc: int, k: int, v: int):
    """Algorithm 4.5 ``insertToLevel``.

    Returns ``(ok, p_locked, raised_key, raised_chunk, raise_next)``:
    ``p_locked`` is the chunk left locked (the one holding ``k`` on
    success; the enclosing chunk if ``k`` was already present) — the
    caller decides when to release it.
    """
    geo = sl.geo
    p_enc, kvs = yield from find_and_lock_enclosing(sl, p_enc, k)
    if team.chunk_contains(k, kvs, geo):
        return False, p_enc, None, None, False

    if num_live_entries(kvs, geo) < geo.dsize:
        if not has_user_keys(kvs, geo):
            # The target chunk held no real keys — a level's pristine
            # initial chunk, or a last chunk drained by deletes (whose
            # drain decremented the counter).  Landing a key re-utilizes
            # it, so bump the counter *before* the key is published.
            # The counter may transiently over-count but must never
            # under-count: height readers use it to skip empty levels,
            # and an under-count makes top-down deletes miss upper-level
            # copies, stranding orphan keys (found by the chaos gate).
            yield from sl.head.increment_chunks(level)
        yield from execute_insert(sl, p_enc, kvs, k, v)
        return True, p_enc, k, p_enc, False

    # Same discipline for the split path: bump before split_insert swings
    # the next pointer that publishes the new chunk.
    yield from sl.head.increment_chunks(level)
    p_insert, raised_key, raised_chunk = yield from split_insert(
        sl, p_enc, kvs, k, v, level)
    raise_next = bool(sl.rng.random() < sl.p_chunk)
    sl.metrics.splits += 1
    return True, p_insert, raised_key, raised_chunk, raise_next


def insert(sl, k: int, v: int, hint=None):
    """Algorithm 4.5 ``insert``: the public insert operation.

    ``hint`` is an optional precomputed ``(found, path)`` from
    :func:`~repro.core.vector.vector_search` (the batch engine's
    vectorized traversal).  The path entries are only starting points —
    every level re-walks laterally and re-validates under the chunk
    lock — so a hint from an earlier quiescent snapshot stays correct.
    """
    if hint is None:
        found, path = yield from search_slow(sl, k)
    else:
        found, path = hint
    if found:
        return False

    ok, p_bottom, raised_key, raised_chunk, raise_next = \
        yield from insert_to_level(sl, 0, path[0], k, v)
    if not ok:
        yield from unlock_chunk(sl, p_bottom)
        return False

    level = 1
    v_ptr = raised_chunk          # down pointer for the raised key
    key_up = raised_key
    while raise_next and level < sl.layout.max_level:
        ok, p_enc, key2, chunk2, raise_next = yield from insert_to_level(
            sl, level, path[level], key_up, v_ptr)
        yield from unlock_chunk(sl, p_enc)
        if not ok:
            break
        v_ptr = chunk2
        key_up = key2
        level += 1

    yield from unlock_chunk(sl, p_bottom)
    sl.metrics.inserts += 1
    return True
