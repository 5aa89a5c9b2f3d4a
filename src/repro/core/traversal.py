"""Traversal generators: Algorithms 4.1–4.4 and 4.6.

All functions are device-function generators taking the owning
:class:`~repro.core.gfsl.GFSL` instance (``sl``) first; they yield memory
events and return Python values.  Three traversal flavours exist:

* :func:`search_down` — the fast, lock-free upper-level descent used by
  ``Contains`` (Algorithm 4.2), including the rare restart that makes
  ``Contains`` lock-free rather than wait-free (Section 4.2.1),
* :func:`search_slow` — the update-path traversal (Algorithm 4.6): also
  records the per-level *path* of down-steps and lazily unlinks zombies
  it meets (try-lock redirect),
* :func:`search_lateral` / :func:`find_lateral` — lateral walks to the
  enclosing chunk of a key at one level (Algorithm 4.4).
"""

from __future__ import annotations

from ..gpu import events as ev
from . import constants as C
from . import team
from .chunk import is_zombie, max_field, next_ptr

#: Per-op traversal-restart bound before :class:`RestartStorm`; ``GFSL``
#: instances carry it as ``restart_limit``.
DEFAULT_RESTART_LIMIT = 10_000


class RestartStorm(RuntimeError):
    """A single operation restarted its traversal implausibly often.

    The restart path (a concurrent delete removed the key a down step
    used) is expected to be *rare*; a regression that makes it fire in
    a loop shows up as this typed, counted exception — with the key and
    traversal site attached — instead of a silent hang.
    """

    def __init__(self, key: int, restarts: int, where: str):
        self.key = key
        self.restarts = restarts
        self.where = where
        super().__init__(f"{where} for key {key} restarted "
                         f"{restarts} times — retry storm")


def _injector(sl):
    """The structure's attached chaos injector, or None (the common,
    zero-overhead case)."""
    return getattr(sl, "chaos", None)


def _count_restart(sl, key: int, restarts: int, where: str) -> int:
    """Count one restart by flavour — the lock-free read descent is a
    contains restart, every update-path descent an update restart — and
    raise :class:`RestartStorm` past the structure's bound."""
    if where == "search_down":
        sl.metrics.contains_restarts += 1
    else:
        sl.metrics.update_restarts += 1
    restarts += 1
    if restarts >= getattr(sl, "restart_limit", DEFAULT_RESTART_LIMIT):
        raise RestartStorm(key, restarts, where)
    return restarts


def read_chunk(sl, ptr: int):
    """One coalesced team read of a whole chunk — the unit step of every
    GFSL traversal.  Chaos injection point ``preempt_traversal``: extra
    yields here widen the window between consecutive chunk reads."""
    inj = _injector(sl)
    if inj is not None:
        yield from inj.stall("preempt_traversal")
    sl.metrics.chunk_reads += 1
    kvs = yield ev.ChunkRead(sl.layout.chunk_addr(ptr), sl.geo.n)
    return kvs


def skip_zombies(sl, ptr: int, kvs):
    """Follow next pointers through a (frozen) zombie chain; returns the
    first non-zombie chunk and its snapshot.  Terminates because the last
    chunk in a level is never a zombie (Section 4.2.3).  Chain lengths
    feed the watchdog's starvation accounting."""
    geo = sl.geo
    chain = 0
    while is_zombie(kvs, geo):
        chain += 1
        ptr = next_ptr(kvs, geo)
        kvs = yield from read_chunk(sl, ptr)
    if chain:
        m = sl.metrics
        m.zombie_encounters += chain
        if chain > m.max_zombie_chain:
            m.max_zombie_chain = chain
    return ptr, kvs


def redirect_to_remove_zombie(sl, prev_ptr: int, zombie_ptr: int,
                              new_next: int):
    """Lazily unlink a zombie: try-lock the previous chunk and swing its
    next pointer past the frozen zombie chain (Algorithm 4.6 lines
    10–20).  Best-effort — a lost race or a locked predecessor just means
    some later traversal retries."""
    from .locks import try_lock_chunk, unlock_chunk
    locked = yield from try_lock_chunk(sl, prev_ptr)
    if not locked:
        return False
    kvs = yield from read_chunk(sl, prev_ptr)
    geo = sl.geo
    ok = False
    if next_ptr(kvs, geo) == zombie_ptr:
        # Preserve the max field; only the pointer half changes.  Safe
        # because the NEXT word is only written under the chunk lock.
        from .chunk import pack_next
        yield ev.WordWrite(sl.layout.entry_addr(prev_ptr, geo.next_idx),
                           pack_next(max_field(kvs, geo), new_next))
        sl.metrics.zombies_unlinked += 1
        ok = True
    yield from unlock_chunk(sl, prev_ptr)
    return ok


def back_track(sl, prev_kvs, k: int):
    """Step down through the previous chunk after overshooting
    (Algorithm 4.2 ``backTrack``)."""
    step_tid = team.tid_of_down_step(k, prev_kvs, sl.geo)
    return team.ptr_from_tid(step_tid, prev_kvs)


def search_down(sl, k: int):
    """Lock-free upper-level descent; returns the bottom-level chunk to
    start the lateral search from (Algorithm 4.2).  Restarts are counted
    and bounded (:class:`RestartStorm`)."""
    geo = sl.geo
    m = sl.metrics
    restarts = 0
    while True:  # the 'goto search' restart loop
        prev_kvs = None
        head_words = yield from sl.head.read_all()
        height = sl.head.height_of(head_words)
        pcurr = sl.head.ptr_of(head_words, height)
        restart = False
        while height > 0:
            kvs = yield from read_chunk(sl, pcurr)
            if is_zombie(kvs, geo):
                m.zombie_encounters += 1
                pcurr = next_ptr(kvs, geo)
                continue
            step_tid = team.tid_for_next_step(k, kvs, geo)
            if step_tid == geo.next_idx:          # lateral step
                m.lateral_steps += 1
                prev_kvs = kvs
                pcurr = next_ptr(kvs, geo)
            elif step_tid != C.NONE_TID:          # down step
                m.down_steps += 1
                height -= 1
                prev_kvs = None
                pcurr = team.ptr_from_tid(step_tid, kvs)
            else:                                  # backtrack
                if prev_kvs is None:
                    # A concurrent delete removed the key our down step
                    # used: not enough data to continue — restart.  This
                    # is the rare case that makes Contains lock-free.
                    restarts = _count_restart(sl, k, restarts, "search_down")
                    restart = True
                    break
                m.backtrack_steps += 1
                height -= 1
                pcurr = back_track(sl, prev_kvs, k)
                prev_kvs = None
        if not restart:
            return pcurr


def search_lateral(sl, k: int, ptr: int):
    """Bottom-level (or any-level) lateral search for ``k`` itself
    (Algorithm 4.4); returns ``(found, enclosing_ptr)``."""
    geo = sl.geo
    inj = _injector(sl)
    m = sl.metrics
    # Plantable bug for checker validation: treating a frozen zombie as
    # live lets a contains observe merged-away (stale) entries.
    ignore_zombies = inj is not None and inj.bug_active("skip-zombie-recheck")
    while True:
        kvs = yield from read_chunk(sl, ptr)
        found_tid = team.tid_with_equal_key(k, kvs, geo)
        zombie = (not ignore_zombies) and is_zombie(kvs, geo)
        if found_tid == geo.next_idx or zombie:
            if zombie:
                m.zombie_encounters += 1
            else:
                m.lateral_steps += 1
            ptr = next_ptr(kvs, geo)
            continue
        return found_tid != C.NONE_TID, ptr


def find_lateral(sl, k: int, ptr: int):
    """Walk right to the enclosing chunk of ``k``; returns
    ``(found, enclosing_ptr, kvs)``.  Used by updateDownPtrs and the
    delete containment pre-checks."""
    geo = sl.geo
    m = sl.metrics
    while True:
        kvs = yield from read_chunk(sl, ptr)
        if is_zombie(kvs, geo) or max_field(kvs, geo) < k:
            if is_zombie(kvs, geo):
                m.zombie_encounters += 1
            else:
                m.lateral_steps += 1
            ptr = next_ptr(kvs, geo)
            continue
        return team.chunk_contains(k, kvs, geo), ptr, kvs


def search_slow(sl, k: int):
    """The update-path traversal (Algorithm 4.6).

    Returns ``(found, path)`` where ``path[i]`` is the chunk through
    which the down step into level ``i`` was taken (or the head chunk of
    level ``i`` if the traversal never visited it), and ``path[0]`` is
    the enclosing chunk at the bottom.  Lazily unlinks zombies met after
    lateral steps and swings head pointers off zombie first chunks.
    """
    geo = sl.geo
    m = sl.metrics
    restarts = 0
    while True:  # 'goto search'
        head_words = yield from sl.head.read_all()
        height = sl.head.height_of(head_words)
        # The "artificial array": path defaults to each level's head.
        path = [sl.head.ptr_of(head_words, lvl)
                for lvl in range(sl.layout.max_level)]
        prev_kvs = None
        prev_ptr = None
        pcurr = path[height]
        via_head = True
        restart = False
        while height > 0:
            kvs = yield from read_chunk(sl, pcurr)
            if is_zombie(kvs, geo):
                zombie_ptr = pcurr
                first_nz, kvs = yield from skip_zombies(sl, pcurr, kvs)
                if prev_ptr is not None:
                    yield from redirect_to_remove_zombie(
                        sl, prev_ptr, zombie_ptr, first_nz)
                elif via_head:
                    yield from sl.head.replace_first_chunk(
                        height, zombie_ptr, first_nz)
                pcurr = first_nz
            via_head = False
            step_tid = team.tid_for_next_step(k, kvs, geo)
            if step_tid == geo.next_idx:          # lateral step
                m.lateral_steps += 1
                prev_kvs, prev_ptr = kvs, pcurr
                pcurr = next_ptr(kvs, geo)
            elif step_tid != C.NONE_TID:          # down step
                m.down_steps += 1
                path[height] = pcurr
                height -= 1
                prev_kvs = prev_ptr = None
                pcurr = team.ptr_from_tid(step_tid, kvs)
            else:                                  # backtrack
                if prev_kvs is None:
                    restarts = _count_restart(sl, k, restarts, "search_slow")
                    restart = True
                    break
                m.backtrack_steps += 1
                path[height] = prev_ptr
                height -= 1
                pcurr = back_track(sl, prev_kvs, k)
                prev_kvs = prev_ptr = None
        if restart:
            continue
        found, enclosing = yield from search_lateral_with_redirect(
            sl, k, pcurr, head_level=0 if via_head else None)
        path[0] = enclosing
        return found, path


def search_lateral_with_redirect(sl, k: int, ptr: int,
                                 head_level: int | None = None):
    """Bottom-level lateral search that also lazily unlinks zombie chains
    it walks through (``findLateralWithZombieRedirect``).  When the walk
    starts directly at a level's head chunk (``head_level`` set — the
    height-0 case where no down step precedes the lateral phase), a
    zombie first chunk swings the head pointer instead."""
    geo = sl.geo
    m = sl.metrics
    prev_ptr = None
    while True:
        kvs = yield from read_chunk(sl, ptr)
        if is_zombie(kvs, geo):
            # skip_zombies counts the chain into zombie_encounters.
            zombie_ptr = ptr
            first_nz, kvs = yield from skip_zombies(sl, ptr, kvs)
            if prev_ptr is not None:
                yield from redirect_to_remove_zombie(
                    sl, prev_ptr, zombie_ptr, first_nz)
            elif head_level is not None:
                yield from sl.head.replace_first_chunk(
                    head_level, zombie_ptr, first_nz)
            ptr = first_nz
        found_tid = team.tid_with_equal_key(k, kvs, geo)
        if found_tid == geo.next_idx:
            m.lateral_steps += 1
            prev_ptr = ptr
            ptr = next_ptr(kvs, geo)
            continue
        return found_tid != C.NONE_TID, ptr


def search_down_to_level(sl, target_level: int, k: int):
    """Descend like :func:`search_down` but stop at ``target_level``
    (used by updateDownPtrs, Algorithm 4.10).  Returns a chunk at that
    level from which ``k``'s enclosing chunk is laterally reachable."""
    geo = sl.geo
    m = sl.metrics
    restarts = 0
    while True:
        prev_kvs = None
        head_words = yield from sl.head.read_all()
        height = sl.head.height_of(head_words)
        if height <= target_level:
            return sl.head.ptr_of(head_words, target_level)
        pcurr = sl.head.ptr_of(head_words, height)
        restart = False
        while height > target_level:
            kvs = yield from read_chunk(sl, pcurr)
            if is_zombie(kvs, geo):
                m.zombie_encounters += 1
                pcurr = next_ptr(kvs, geo)
                continue
            step_tid = team.tid_for_next_step(k, kvs, geo)
            if step_tid == geo.next_idx:
                m.lateral_steps += 1
                prev_kvs = kvs
                pcurr = next_ptr(kvs, geo)
            elif step_tid != C.NONE_TID:
                m.down_steps += 1
                height -= 1
                prev_kvs = None
                pcurr = team.ptr_from_tid(step_tid, kvs)
            else:
                if prev_kvs is None:
                    restarts = _count_restart(sl, k, restarts,
                                              "search_down_to_level")
                    restart = True
                    break
                m.backtrack_steps += 1
                height -= 1
                pcurr = back_track(sl, prev_kvs, k)
                prev_kvs = None
        if not restart:
            return pcurr
