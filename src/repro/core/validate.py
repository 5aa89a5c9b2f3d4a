"""Host-side structure walkers and invariant validators.

These inspect the simulated device memory directly (no events, no cost)
and are meant for tests and quiescent-state assertions.  The invariants
checked are the ones Section 4.3 argues for:

* per-chunk sortedness and live-entry contiguity,
* the max field bounds every data key,
* lateral ordering between live chunks in a level,
* each level is a subset of the level below,
* every down pointer reaches a chunk from which its key's enclosing
  chunk is laterally reachable,
* zombies are frozen and never the last chunk of a level.

Every walker reads a level the same way: the chunk pool is viewed as
one ``(capacity_chunks, n)`` word matrix over device memory, the level's
chain is followed over the next pointers, and the level's chunks are
gathered as rows in chain order.  The invariants then run as array
operations over those rows — the host-side counterpart of a team
judging a whole chunk from one coalesced read plus a ballot — and a
violation is reported as the first one a chunk-by-chunk walk would meet.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import constants as C
from .chunk import keys_vec, vals_vec

#: Chunks a scalar lateral walk reads before giving up.
_MAX_HOPS = 1_000_000


class InvariantViolation(AssertionError):
    pass


def read_chunk_host(sl, ptr: int) -> np.ndarray:
    return sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)


def head_ptr_host(sl, level: int) -> int:
    return sl.ctx.mem.read_word(sl.layout.head_addr(level)) >> 32


def head_count_host(sl, level: int) -> int:
    return sl.ctx.mem.read_word(sl.layout.head_addr(level)) & C.MASK32


def _pool(sl) -> np.ndarray:
    """The chunk pool as a ``(capacity_chunks, n)`` view of device memory
    (no copy)."""
    lay = sl.layout
    n = sl.geo.n
    return sl.ctx.mem.raw()[lay.chunks_base: lay.chunks_base
                            + lay.capacity_chunks * n].reshape(-1, n)


def _next_ptrs(sl, pool: np.ndarray) -> list[int]:
    """Every chunk's next pointer, as Python ints for the chain walk."""
    return (pool[:, sl.geo.next_idx] >> np.uint64(32)).tolist()


def _raise_cycle(level: int, ptr: int):
    raise InvariantViolation(f"cycle at level {level} via chunk {ptr}")


def _chain(sl, level: int, nxt: list[int]):
    """Pointers along a level in chain order, from the head.

    Returns ``(ptrs, stop)``.  ``stop`` is None when the chain ends at
    NULL; otherwise it raises what a chunk-by-chunk walk raises where
    the chain breaks — a cycle, or (through :func:`read_chunk_host`) a
    pointer outside the pool — and callers check the chunks before the
    break first.  Zombie unlinking is lazy, so zombies may appear."""
    cap = len(nxt)
    ptrs: list[int] = []
    append = ptrs.append
    ptr = head_ptr_host(sl, level)
    # NULL lies outside the pool, so one bound test ends the walk; a
    # chain longer than the pool must revisit a chunk.
    for _ in range(cap + 1):
        if ptr >= cap:
            break
        append(ptr)
        ptr = nxt[ptr]
    if ptr == C.NULL_PTR:
        return ptrs, None
    if ptr >= cap:
        return ptrs, partial(read_chunk_host, sl, ptr)
    seen: set[int] = set()
    for i, ptr in enumerate(ptrs):
        if ptr in seen:
            break
        seen.add(ptr)
    return ptrs[:i], partial(_raise_cycle, level, ptr)


class _Level(NamedTuple):
    """One level, gathered in chain order (see :func:`_chain`)."""

    ptrs: list[int]
    rows: np.ndarray        # (m, n) chunk words, one row per chunk
    keys: np.ndarray        # (m, dsize) data key fields
    zombie: np.ndarray      # (m,) lock state is ZOMBIE
    stop: Callable | None   # raises where the chain breaks, if it does

    def user_keys(self) -> np.ndarray:
        """Keys of the live chunks in chain then entry order, −∞ and
        empty entries excluded."""
        keys = self.keys[~self.zombie]
        return keys[(keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY)]


def _gather(sl, level: int, pool: np.ndarray | None = None,
            nxt: list[int] | None = None) -> _Level:
    """Read a level once: its chain, then those chunks' rows."""
    if pool is None:
        pool = _pool(sl)
    ptrs, stop = _chain(sl, level, _next_ptrs(sl, pool) if nxt is None
                        else nxt)
    rows = pool[np.asarray(ptrs, dtype=np.intp)]
    return _Level(ptrs, rows, keys_vec(rows[:, : sl.geo.dsize]),
                  rows[:, sl.geo.lock_idx] == C.ZOMBIE, stop)


def level_chain(sl, level: int, include_zombies: bool = True):
    """Yield ``(ptr, kvs)`` along a level, following next pointers from
    the head.  Zombie unlinking is lazy, so zombies may appear."""
    lv = _gather(sl, level)
    for ptr, kvs, zombie in zip(lv.ptrs, lv.rows, lv.zombie):
        if include_zombies or not zombie:
            yield ptr, kvs
    if lv.stop is not None:
        lv.stop()


def level_kv(sl, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Live keys and values at a level as two arrays, in chain order,
    −∞ excluded."""
    lv = _gather(sl, level)
    if lv.stop is not None:
        lv.stop()
    keys = lv.keys[~lv.zombie]
    user = (keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY)
    return keys[user], vals_vec(lv.rows[~lv.zombie, : sl.geo.dsize][user])


def level_items(sl, level: int) -> list[tuple[int, int]]:
    """Live (key, value) pairs at a level, in chain order, −∞ excluded."""
    keys, vals = level_kv(sl, level)
    return list(zip(keys.tolist(), vals.tolist()))


def bottom_items(sl) -> list[tuple[int, int]]:
    return level_items(sl, 0)


def count_zombies(sl) -> int:
    allocated = min(sl.pool.allocated(sl.ctx.mem), sl.layout.capacity_chunks)
    locks = _pool(sl)[:allocated, sl.geo.lock_idx]
    return int(np.count_nonzero(locks == C.ZOMBIE))


def structure_height(sl) -> int:
    h = 0
    for level in range(sl.layout.max_level):
        if head_count_host(sl, level) > 0:
            h = level
    return h


def _check_chunks(level: int, lv: _Level, geo) -> None:
    """Run the per-chunk invariants over a level's rows and raise the
    first violation a chunk-by-chunk walk would meet: per chunk, a valid
    lock state, then (live chunks only) contiguity, sortedness, the
    max-field bound, −∞ in the first live chunk, and ordering after the
    previous non-empty live chunk."""
    m = len(lv.ptrs)
    if m == 0:
        return
    keys, zombie = lv.keys, lv.zombie
    lock = lv.rows[:, geo.lock_idx]
    max_f = keys_vec(lv.rows[:, geo.next_idx])
    live = keys != C.EMPTY_KEY
    n_live = np.count_nonzero(live, axis=1)
    holes = (live[:, 1:] & ~live[:, :-1]).any(axis=1)
    # In a contiguous chunk a live entry's predecessor is live too.
    unsorted = ((keys[:, 1:] <= keys[:, :-1]) & live[:, 1:]).any(axis=1)
    # With live entries contiguous and sorted, the last one is the max.
    top = keys[np.arange(m), np.maximum(n_live - 1, 0)]
    over_max = (n_live > 0) & (max_f != C.EMPTY_KEY) & (top > max_f)
    alive = np.flatnonzero(~zombie)
    lacks_neg_inf = np.zeros(m, dtype=bool)
    if alive.size:
        f = alive[0]
        lacks_neg_inf[f] = n_live[f] == 0 or keys[f, 0] != C.NEG_INF_KEY
    # Each non-empty live chunk's min lies above the previous one's bound:
    # its max field, or its largest key when the field is ∞.
    filled = np.flatnonzero(~zombie & (n_live > 0))
    bound = np.where(max_f != C.EMPTY_KEY, max_f, top)
    overlap = np.zeros(m, dtype=bool)
    overlap[filled[1:]] = keys[filled[1:], 0] <= bound[filled[:-1]]
    checks = ((lock != C.UNLOCKED) & ~zombie, holes & ~zombie,
              unsorted & ~zombie, over_max & ~zombie, lacks_neg_inf, overlap)
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    failed = next(c for c, check in enumerate(checks) if check[i])
    ptr = lv.ptrs[i]
    where = f"level {level} chunk {ptr}"
    if failed == 0:
        msg = f"{where} left locked ({int(lock[i])})"
    elif failed == 1:
        msg = f"{where}: live entries not contiguous: {keys[i]}"
    elif failed == 2:
        msg = f"{where}: data not strictly sorted: {keys[i][live[i]]}"
    elif failed == 3:
        msg = f"{where}: key {int(top[i])} exceeds max field {int(max_f[i])}"
    elif failed == 4:
        msg = f"level {level}: first live chunk {ptr} lacks -inf"
    else:
        prev = filled[np.searchsorted(filled, i) - 1]
        msg = (f"{where}: min {int(keys[i, 0])} <= previous chunk max "
               f"{int(bound[prev])}")
    raise InvariantViolation(msg)


def _check_down_ptrs(sl, level: int, lv: _Level, below: _Level) -> None:
    """Every down pointer at ``level`` reaches a chunk below holding its
    key.  A pointer onto the chain below is checked by position: from
    there a frontier advances past zombies and past chunks whose max
    field is below the key, and the chunk where it stops must hold the
    key.  A pointer off that chain takes the scalar
    :func:`_reachable_below` walk.  Raises for the first pointer (chain
    order, then entry order) that fails."""
    geo = sl.geo
    cap = sl.layout.capacity_chunks
    keys = lv.keys[~lv.zombie]
    entry = keys != C.EMPTY_KEY
    keys = keys[entry]
    targets = vals_vec(lv.rows[~lv.zombie, : geo.dsize][entry])
    m = len(below.ptrs)
    position = np.full(cap, -1, dtype=np.int64)
    position[np.asarray(below.ptrs, dtype=np.intp)] = np.arange(m)
    start = np.full(keys.size, -1, dtype=np.int64)
    in_pool = targets < cap
    start[in_pool] = position[targets[in_pool]]
    on_chain = start >= 0

    b_max = keys_vec(below.rows[:, geo.next_idx])
    chained = np.flatnonzero(on_chain)
    want = keys[chained]
    stop = start[chained]
    moving = np.arange(chained.size)
    while moving.size:
        moving = moving[stop[moving] < m]
        at = stop[moving]
        passes = below.zombie[at] | ((b_max[at] != C.EMPTY_KEY)
                                     & (b_max[at] < want[moving]))
        moving = moving[passes]
        stop[moving] += 1
    reached = (stop < m) & (stop - start[chained] < _MAX_HOPS)
    holds = np.zeros(chained.size, dtype=bool)
    holds[reached] = (below.keys[stop[reached]]
                      == want[reached, None]).any(axis=1)
    bad = chained[~holds]
    first_bad = int(bad[0]) if bad.size else keys.size
    for j in np.flatnonzero(~on_chain[:first_bad]).tolist():
        if not _reachable_below(sl, level - 1, int(targets[j]),
                                int(keys[j])):
            first_bad = j
            break
    if first_bad < keys.size:
        raise InvariantViolation(
            f"down pointer of key {int(keys[first_bad])} at level {level} "
            f"cannot reach its enclosing chunk below")


def validate_structure(sl, check_subsets: bool = True,
                       check_down_ptrs: bool = True) -> dict:
    """Run every quiescent-state invariant; returns summary stats."""
    geo = sl.geo
    height = structure_height(sl)
    pool = _pool(sl)
    nxt = _next_ptrs(sl, pool)
    levels: list[_Level] = []
    per_level: list[np.ndarray] = []
    stats = {"height": height, "chunks": 0, "zombies": 0}

    for level in range(height + 1):
        lv = _gather(sl, level, pool, nxt)
        _check_chunks(level, lv, geo)
        if lv.stop is not None:
            lv.stop()
        stats["chunks"] += len(lv.ptrs)
        stats["zombies"] += int(np.count_nonzero(lv.zombie))
        if lv.ptrs and lv.zombie[-1]:
            raise InvariantViolation(
                f"level {level}: last chunk in chain is a zombie")
        keys = lv.user_keys()
        if (keys[1:] <= keys[:-1]).any():
            raise InvariantViolation(
                f"level {level}: keys not globally sorted/unique")
        levels.append(lv)
        per_level.append(keys)

    if check_subsets:
        for level in range(1, height + 1):
            keys = per_level[level]
            missing = ~np.isin(keys, per_level[level - 1])
            if missing.any():
                raise InvariantViolation(
                    f"key {int(keys[np.argmax(missing)])} at level {level} "
                    f"missing from level {level - 1}")

    if check_down_ptrs:
        for level in range(1, height + 1):
            _check_down_ptrs(sl, level, levels[level], levels[level - 1])
    return stats


def _reachable_below(sl, level_below: int, ptr: int, k: int) -> bool:
    """Walk laterally from ``ptr`` at ``level_below``; succeed if we meet
    a live chunk containing ``k`` (−∞ trivially found in first chunk)."""
    geo = sl.geo
    hops = 0
    while ptr != C.NULL_PTR and hops < _MAX_HOPS:
        hops += 1
        kvs = read_chunk_host(sl, ptr)
        zombie = int(kvs[geo.lock_idx]) == C.ZOMBIE
        keys = keys_vec(kvs)[: geo.dsize]
        if not zombie:
            if (keys == k).any():
                return True
            max_f = int(keys_vec(kvs)[geo.next_idx])
            if max_f != C.EMPTY_KEY and max_f >= k:
                return False  # enclosing chunk reached but key absent
            if max_f == C.EMPTY_KEY:
                return bool((keys == k).any())
        ptr = int(kvs[geo.next_idx]) >> 32
    return False
