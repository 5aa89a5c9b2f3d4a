"""Reference oracle: the chunk-at-a-time structure validator.

``repro.core.validate`` checks each level with array operations over
its chunks.  This module keeps the straightforward scalar version — one
chunk read and a handful of small checks per chunk, a second walk for
each level's items, and a lateral walk per upper-level key — so the
corruption fuzz can assert the two agree exactly: identical stats on a
valid structure, an identical first ``InvariantViolation`` (or other
exception) on a corrupted one.  Only tests import it.
"""

from __future__ import annotations

import numpy as np

from repro.core import constants as C
from repro.core.chunk import keys_vec, vals_vec
from repro.core.validate import (InvariantViolation, head_ptr_host,
                                 read_chunk_host, structure_height)


def level_chain(sl, level: int, include_zombies: bool = True):
    """Yield ``(ptr, kvs)`` along a level, following next pointers from
    the head.  Zombie unlinking is lazy, so zombies may appear."""
    ptr = head_ptr_host(sl, level)
    seen = set()
    while ptr != C.NULL_PTR:
        if ptr in seen:
            raise InvariantViolation(f"cycle at level {level} via chunk {ptr}")
        seen.add(ptr)
        kvs = read_chunk_host(sl, ptr)
        zombie = int(kvs[sl.geo.lock_idx]) == C.ZOMBIE
        if include_zombies or not zombie:
            yield ptr, kvs
        nxt = int(kvs[sl.geo.next_idx]) >> 32
        ptr = nxt


def level_items(sl, level: int) -> list[tuple[int, int]]:
    """Live (key, value) pairs at a level, in chain order, −∞ excluded."""
    out: list[tuple[int, int]] = []
    for _ptr, kvs in level_chain(sl, level):
        if int(kvs[sl.geo.lock_idx]) == C.ZOMBIE:
            continue
        keys = keys_vec(kvs)[: sl.geo.dsize]
        vals = vals_vec(kvs)[: sl.geo.dsize]
        mask = (keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY)
        out.extend((int(k), int(v)) for k, v in zip(keys[mask], vals[mask]))
    return out


def _check_chunk(sl, ptr: int, kvs: np.ndarray, level: int) -> None:
    geo = sl.geo
    keys = keys_vec(kvs)[: geo.dsize]
    live_mask = keys != C.EMPTY_KEY
    live = keys[live_mask]
    # Live entries must be contiguous from index 0.
    n_live = int(np.count_nonzero(live_mask))
    if n_live and not live_mask[:n_live].all():
        raise InvariantViolation(
            f"level {level} chunk {ptr}: live entries not contiguous: {keys}")
    # Sorted strictly increasing.
    if live.size > 1 and not (np.diff(live) > 0).all():
        raise InvariantViolation(
            f"level {level} chunk {ptr}: data not strictly sorted: {live}")
    max_f = int(keys_vec(kvs)[geo.next_idx])
    if live.size and max_f != C.EMPTY_KEY and int(live.max()) > max_f:
        raise InvariantViolation(
            f"level {level} chunk {ptr}: key {int(live.max())} exceeds "
            f"max field {max_f}")


def validate_structure(sl, check_subsets: bool = True,
                       check_down_ptrs: bool = True) -> dict:
    """Run every quiescent-state invariant; returns summary stats."""
    geo = sl.geo
    height = structure_height(sl)
    per_level: list[list[int]] = []
    stats = {"height": height, "chunks": 0, "zombies": 0}

    for level in range(height + 1):
        prev_max = None
        keys_here: list[int] = []
        first = True
        last_seen_zombie = False
        for ptr, kvs in level_chain(sl, level):
            stats["chunks"] += 1
            zombie = int(kvs[geo.lock_idx]) == C.ZOMBIE
            lock = int(kvs[geo.lock_idx])
            if lock not in (C.UNLOCKED, C.ZOMBIE):
                raise InvariantViolation(
                    f"level {level} chunk {ptr} left locked ({lock})")
            last_seen_zombie = zombie
            if zombie:
                stats["zombies"] += 1
                continue
            _check_chunk(sl, ptr, kvs, level)
            keys = keys_vec(kvs)[: geo.dsize]
            live = keys[keys != C.EMPTY_KEY]
            if first:
                if live.size == 0 or int(live[0]) != C.NEG_INF_KEY:
                    raise InvariantViolation(
                        f"level {level}: first live chunk {ptr} lacks -inf")
                first = False
            if prev_max is not None and live.size:
                if int(live.min()) <= prev_max:
                    raise InvariantViolation(
                        f"level {level} chunk {ptr}: min {int(live.min())} "
                        f"<= previous chunk max {prev_max}")
            max_f = int(keys_vec(kvs)[geo.next_idx])
            if live.size and max_f != C.EMPTY_KEY:
                prev_max = max_f
            elif live.size:
                prev_max = int(live.max())
        if last_seen_zombie:
            raise InvariantViolation(
                f"level {level}: last chunk in chain is a zombie")
        keys_here = [k for k, _ in level_items(sl, level)]
        if sorted(keys_here) != keys_here or len(set(keys_here)) != len(keys_here):
            raise InvariantViolation(
                f"level {level}: keys not globally sorted/unique")
        per_level.append(keys_here)

    if check_subsets:
        for level in range(1, height + 1):
            below = set(per_level[level - 1])
            for k in per_level[level]:
                if k not in below:
                    raise InvariantViolation(
                        f"key {k} at level {level} missing from level "
                        f"{level - 1}")

    if check_down_ptrs:
        for level in range(1, height + 1):
            for _ptr, kvs in level_chain(sl, level, include_zombies=False):
                keys = keys_vec(kvs)[: geo.dsize]
                vals = vals_vec(kvs)[: geo.dsize]
                for i in range(geo.dsize):
                    k = int(keys[i])
                    if k == C.EMPTY_KEY:
                        continue
                    if not _reachable_below(sl, level - 1, int(vals[i]), k):
                        raise InvariantViolation(
                            f"down pointer of key {k} at level {level} "
                            f"cannot reach its enclosing chunk below")
    return stats


def _reachable_below(sl, level_below: int, ptr: int, k: int) -> bool:
    """Walk laterally from ``ptr`` at ``level_below``; succeed if we meet
    a live chunk containing ``k`` (−∞ trivially found in first chunk)."""
    geo = sl.geo
    hops = 0
    while ptr != C.NULL_PTR and hops < 1_000_000:
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
