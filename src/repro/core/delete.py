"""Delete path: Algorithms 4.11, 4.12 (and Figures 4.5–4.6).

Deletion mirrors insertion: the bottom-level enclosing chunk is locked
for the whole operation, then the key is removed from every level it
occupies **top-down** (so a down pointer never names a key absent from
the level below), each upper level a short lock–delete–unlock section.
A removal that leaves a chunk with ≤ DSIZE/3 live entries triggers a
merge: the survivors move to the right neighbour and the chunk becomes a
frozen *zombie*, unlinked lazily by later traversals.
"""

from __future__ import annotations

from ..gpu import events as ev
from . import constants as C
from . import team
from .chunk import (has_user_keys, keys_vec, live_data, next_ptr,
                    num_live_entries, pack_next)
from .downptrs import update_down_ptrs
from .insert import pre_split, split_copy
from .locks import (find_and_lock_enclosing, lock_next_chunk, mark_zombie,
                    unlock_chunk)
from .traversal import (_injector, _note_publish, read_chunk, search_lateral,
                        search_slow)


def execute_remove_no_merge(sl, ptr: int, kvs, k: int):
    """Figure 4.6: shift entries greater than ``k`` one slot left,
    writing serially from ``k``'s index upward so no key transiently
    disappears.  If ``k`` is the chunk maximum, the max field is lowered
    *first* so searches never chase a max that is no longer present; if
    the chunk was full, the NEXT thread finally empties the last slot.
    """
    geo = sl.geo
    keys = keys_vec(kvs)
    idx = team.index_of_key(k, kvs, geo)
    assert idx != C.NONE_TID, "caller guarantees containment under lock"
    count = num_live_entries(kvs, geo)

    if int(keys[geo.next_idx]) == k:
        # k is the max: publish the next-highest key as max first.
        new_max = int(keys[idx - 1])
        yield ev.WordWrite(sl.layout.entry_addr(ptr, geo.next_idx),
                           pack_next(new_max, next_ptr(kvs, geo)))

    for i in range(idx, geo.dsize - 1):
        if keys[i] == C.EMPTY_KEY and keys[i + 1] == C.EMPTY_KEY:
            break
        yield ev.WordWrite(sl.layout.entry_addr(ptr, i), int(kvs[i + 1]))
    if count == geo.dsize:
        yield ev.WordWrite(sl.layout.entry_addr(ptr, geo.dsize - 1),
                           C.EMPTY_KV)


def execute_remove_merge(sl, p_enc: int, enc_kvs, p_next: int, next_kvs,
                         k: int):
    """Figure 4.5c: migrate every live entry except ``k`` into the right
    neighbour, whose original entries slide right to make room.  Writes
    land in descending slot order so the precedence-to-higher-tIds rule
    keeps concurrent readers safe."""
    geo = sl.geo
    moved = [int(w) for w in live_data(enc_kvs, geo)
             if (int(w) & C.MASK32) != k]
    orig = [int(w) for w in live_data(next_kvs, geo)]
    new_layout = moved + orig
    assert len(new_layout) <= geo.dsize, "caller splits the target first"
    for i in range(len(new_layout) - 1, -1, -1):
        if int(next_kvs[i]) == new_layout[i]:
            continue  # entry already holds the right value
        yield ev.WordWrite(sl.layout.entry_addr(p_next, i), new_layout[i])
    return [w & C.MASK32 for w in moved]


def split_remove(sl, p_next: int, next_kvs, level: int):
    """Merge-path split (Algorithm 4.12 line 17): identical to the insert
    split except no key is inserted and nothing is raised."""
    geo = sl.geo
    moved_keys = [int(x) for x in keys_vec(next_kvs)[geo.split_keep: geo.dsize]]
    p_new, p_after, next_kvs = yield from pre_split(sl, p_next, next_kvs)
    yield from split_copy(sl, p_next, next_kvs, p_new)
    if p_after is not None:
        yield from unlock_chunk(sl, p_after)
    yield from unlock_chunk(sl, p_new)
    sl.metrics.splits += 1
    yield from update_down_ptrs(sl, level, moved_keys, p_new)


def remove_from_last_chunk(sl, k: int, ptr: int, kvs, level: int):
    """The last chunk in a level has no right neighbour to merge into, so
    entries are simply removed even if the chunk empties entirely
    (Section 4.2.3).  If only −∞ remains the level's chunk counter drops
    to mark it empty."""
    geo = sl.geo
    yield from execute_remove_no_merge(sl, ptr, kvs, k)
    fresh = yield from read_chunk(sl, ptr)
    live = live_data(fresh, geo)
    only_neg_inf = (len(live) == 1
                    and (int(live[0]) & C.MASK32) == C.NEG_INF_KEY)
    emptied = len(live) == 0 or only_neg_inf
    if emptied:
        # Decrement *before* releasing the lock: once the chunk is free a
        # concurrent insert may repopulate it and — seeing a still-nonzero
        # counter — skip its own increment, so a deferred decrement would
        # drive the counter to zero with live keys present.  Height
        # readers would then skip this level, and top-down deletes would
        # leave orphan upper-level keys (found by the chaos gate).
        yield from sl.head.decrement_chunks(level)
    yield from unlock_chunk(sl, ptr)


def remove_from_chunk(sl, k: int, p_enc: int, level: int):
    """Algorithm 4.12: remove ``k`` from a locked chunk, merging if the
    removal crosses the DSIZE/3 threshold.  All exit paths release (or
    zombie) the locks this function is responsible for."""
    geo = sl.geo
    enc_kvs = yield from read_chunk(sl, p_enc)
    count = num_live_entries(enc_kvs, geo)

    if count > geo.merge_threshold:           # no merge required
        yield from execute_remove_no_merge(sl, p_enc, enc_kvs, k)
        yield from unlock_chunk(sl, p_enc)
        return

    p_next, next_kvs, enc_kvs = yield from lock_next_chunk(sl, p_enc, enc_kvs)
    if p_next is None:                        # never merge the last chunk
        yield from remove_from_last_chunk(sl, k, p_enc, enc_kvs, level)
        return

    if num_live_entries(next_kvs, geo) + count - 1 > geo.dsize:
        # Counter discipline: bump *before* the split publishes the new
        # chunk, so the counter never under-reports the level's chunks
        # (a concurrent merge could otherwise consume the new chunk and
        # decrement first, letting height readers miss the level).
        yield from sl.head.increment_chunks(level)
        yield from split_remove(sl, p_next, next_kvs, level)
        next_kvs = yield from read_chunk(sl, p_next)

    inj = _injector(sl)
    if inj is not None:
        # Chaos point stall_merge: pause holding both merge locks, just
        # before the migration writes and the zombie mark.
        yield from inj.stall("stall_merge")
    target_utilized = has_user_keys(next_kvs, geo)
    moved_keys = yield from execute_remove_merge(
        sl, p_enc, enc_kvs, p_next, next_kvs, k)
    yield from mark_zombie(sl, p_enc)
    _note_publish(sl, "merge")
    sl.metrics.merges += 1
    moved_real = any(mk != C.NEG_INF_KEY for mk in moved_keys)
    if target_utilized or not moved_real:
        # One utilized chunk (pEnc) became a zombie.  Exception: when
        # the merge migrates real keys into a *drained* last chunk, the
        # target flips to utilized, cancelling the zombie's decrement —
        # decrementing anyway would make the counter under-report and
        # height readers skip a live level (orphan upper-level keys).
        yield from sl.head.decrement_chunks(level)
    yield from unlock_chunk(sl, p_next)
    # pEnc is a zombie now: the mark is terminal, no unlock.
    yield from update_down_ptrs(sl, level, moved_keys, p_next)


def delete(sl, k: int, hint=None):
    """Algorithm 4.11 ``delete``: the public delete operation.

    ``hint`` is an optional precomputed ``(found, path)`` from
    :func:`~repro.core.vector.vector_search`; see
    :func:`repro.core.insert.insert` — the same re-validation argument
    applies (containment is re-checked under the bottom lock).
    """
    if hint is None:
        found, path = yield from search_slow(sl, k)
    else:
        found, path = hint
    if not found:
        return False

    p_bottom, bkvs = yield from find_and_lock_enclosing(sl, path[0], k)
    if not team.chunk_contains(k, bkvs, sl.geo):
        yield from unlock_chunk(sl, p_bottom)
        return False

    # Re-read the height so levels added since the traversal are covered
    # (their path entries already default to the level head chunks).
    height = yield from sl.head.get_height()
    for level in range(height, 0, -1):
        found_lvl, enc = yield from search_lateral(sl, k, path[level])
        if not found_lvl:
            # Checking containment before locking slashes contention on
            # the sparse upper levels (Section 4.2.3).
            continue
        p_enc, ekvs = yield from find_and_lock_enclosing(sl, enc, k)
        if not team.chunk_contains(k, ekvs, sl.geo):
            # The bottom lock keeps k pinned, so this can only be a stale
            # path artifact; nothing to remove at this level after all.
            yield from unlock_chunk(sl, p_enc)
            continue
        yield from remove_from_chunk(sl, k, p_enc, level)

    yield from remove_from_chunk(sl, k, p_bottom, 0)
    sl.metrics.deletes += 1
    return True
