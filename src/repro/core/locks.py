"""Chunk locking protocol (Algorithm 4.8 and the zombie mark).

The LOCK entry of a chunk holds UNLOCKED, LOCKED, or the terminal ZOMBIE
value.  Locks are taken with atomicCAS; the deadlock hazard of warp
spin-locks (Section 2.2) does not arise because the whole *team* spins
together — there is never a divergent branch between a lock holder and
spinners inside one warp.

Lock ordering (why this cannot deadlock): within a level, multi-chunk
sections (split, merge) always lock left-to-right in list order; across
levels, an operation holding level-*i* locks only ever waits for
level-*i*+1 locks (updateDownPtrs, key raising) — all waits point
rightward or upward, so no cycle can form.

Acquisition loops are *bounded*: every failed attempt (spin on a locked
chunk, lost or chaos-failed CAS) is counted in ``metrics.lock_spins``
and, past ``sl.lock_retry_limit``, raises a typed :class:`LockTimeout`
naming the chunk and (when a chaos injector tracks ownership) the
holder — so a protocol regression surfaces as a diagnosable exception
instead of an infinite spin.  The default limit is far above anything a
fair scheduler produces.

Chaos injection points (see :mod:`repro.chaos.faults`): a lock CAS may
spuriously report failure (``fail_lock_cas``), and a fresh holder may
stall inside its critical section (``stall_lock_holder``).
"""

from __future__ import annotations

from ..gpu import events as ev
from . import constants as C
from . import team
from .chunk import is_locked, next_ptr
from .traversal import _injector, read_chunk, skip_zombies

#: Failed-acquisition bound before :class:`LockTimeout`; ``GFSL``
#: instances carry it as ``lock_retry_limit`` so tests and chaos
#: campaigns can tighten it.
DEFAULT_LOCK_RETRY_LIMIT = 1_000_000


class LockTimeout(RuntimeError):
    """Bounded lock acquisition gave up on a chunk.

    Attributes: ``chunk`` (pool pointer), ``attempts`` (failed
    acquisitions), ``owner`` (task id of the holder when a chaos
    injector tracked it, else None).
    """

    def __init__(self, chunk: int, attempts: int, owner=None):
        self.chunk = chunk
        self.attempts = attempts
        self.owner = owner
        held = f" (held by task {owner})" if owner is not None else ""
        super().__init__(f"gave up locking chunk {chunk} after "
                         f"{attempts} failed attempts{held}")


def _retry_policy(sl):
    """The structure's lock-retry bound as a shared
    :class:`~repro.chaos.retry.RetryPolicy` (no backoff: a spinning
    team re-reads rather than sleeps).  Cached per instance and rebuilt
    when ``lock_retry_limit`` changes, so tests that tighten the limit
    keep working.  Lazy import — chaos depends on core, not vice versa.
    """
    limit = getattr(sl, "lock_retry_limit", DEFAULT_LOCK_RETRY_LIMIT)
    policy = getattr(sl, "_lock_retry_policy", None)
    if policy is None or policy.max_attempts != limit:
        from ..chaos.retry import RetryPolicy
        policy = RetryPolicy.bounded(limit)
        sl._lock_retry_policy = policy
    return policy


def _count_lock_retry(sl, ptr: int, attempts: int) -> int:
    """Bump the retry/backoff accounting; raise past the bound."""
    attempts += 1
    sl.metrics.lock_spins += 1
    if not _retry_policy(sl).allows(attempts):
        inj = _injector(sl)
        owner = inj.owner_of(ptr) if inj is not None else None
        raise LockTimeout(ptr, attempts, owner)
    return attempts


def try_lock_chunk(sl, ptr: int):
    """Single CAS attempt on the lock word; True on success.  Fails on a
    locked chunk *and* on a zombie (its lock word is ZOMBIE, never
    UNLOCKED), which is exactly the behaviour the lazy redirect needs."""
    inj = _injector(sl)
    m = sl.metrics
    if inj is not None and inj.spurious_cas_fail():
        m.lock_cas_failed += 1
        return False
    addr = sl.layout.entry_addr(ptr, sl.geo.lock_idx)
    old = yield ev.WordCAS(addr, C.UNLOCKED, C.LOCKED)
    if old != C.UNLOCKED:
        m.lock_cas_failed += 1
        return False
    m.lock_acquired += 1
    if inj is not None:
        inj.note_lock(ptr)
        yield from inj.stall("stall_lock_holder")
    return True


def unlock_chunk(sl, ptr: int):
    """Release a lock we hold.  A plain atomic store suffices — only the
    holder may release, and a zombie is never unlocked (the mark is
    terminal), so the holder knows the current value is LOCKED."""
    inj = _injector(sl)
    if inj is not None:
        inj.note_unlock(ptr)
    sl.metrics.lock_released += 1
    yield ev.WordWrite(sl.layout.entry_addr(ptr, sl.geo.lock_idx), C.UNLOCKED)


def mark_zombie(sl, ptr: int):
    """Terminal transition LOCKED → ZOMBIE, done by the merging team
    while it holds the lock (Section 4.1).  The chunk's contents are
    frozen from this point on."""
    inj = _injector(sl)
    if inj is not None:
        inj.note_unlock(ptr)
    # The held lock is consumed by the terminal mark, so the
    # acquired/released balance stays zero at quiescence.
    sl.metrics.lock_released += 1
    yield ev.WordWrite(sl.layout.entry_addr(ptr, sl.geo.lock_idx), C.ZOMBIE)


def find_and_lock_enclosing(sl, ptr: int, k: int):
    """Algorithm 4.8: lateral spin until the enclosing chunk of ``k`` is
    locked.  Returns ``(locked_ptr, kvs)`` with ``kvs`` the post-lock
    snapshot (re-read under the lock, line 16)."""
    geo = sl.geo
    attempts = 0
    while True:
        kvs = yield from read_chunk(sl, ptr)
        if team.chunk_not_enclosing(k, kvs, geo):
            ptr = next_ptr(kvs, geo)
            continue
        if is_locked(kvs, geo):
            # Spin: re-read (the yield gives other teams their turn).
            attempts = _count_lock_retry(sl, ptr, attempts)
            continue
        got = yield from try_lock_chunk(sl, ptr)
        if not got:
            attempts = _count_lock_retry(sl, ptr, attempts)
            continue
        kvs = yield from read_chunk(sl, ptr)
        if team.chunk_not_enclosing(k, kvs, geo):
            # The chunk changed under us before the CAS landed.
            yield from unlock_chunk(sl, ptr)
            ptr = next_ptr(kvs, geo)
            continue
        return ptr, kvs


def lock_next_chunk(sl, ptr: int, kvs):
    """Lock the next *non-zombie* chunk of a chunk we already hold,
    unlinking any zombie chain found in between (the merge/split helper
    of Algorithms 4.9/4.12).  Returns ``(next_ptr, next_kvs, own_kvs)``
    — ``own_kvs`` is the caller chunk's snapshot after any pointer swings
    — or ``(None, None, own_kvs)`` if ``ptr`` is the last in its level.

    Holding ``ptr``'s lock means its next pointer is stable except for
    our own writes, so after skipping zombies we may swing it directly.
    """
    geo = sl.geo
    attempts = 0
    while True:
        nxt = next_ptr(kvs, geo)
        if nxt == C.NULL_PTR:
            return None, None, kvs
        nkvs = yield from read_chunk(sl, nxt)
        live_ptr, live_kvs = yield from skip_zombies(sl, nxt, nkvs)
        if live_ptr != nxt:
            # Unlink the zombie chain: we hold ptr's lock, so a plain
            # pointer swing is race-free.
            from .chunk import max_field, pack_next
            yield ev.WordWrite(
                sl.layout.entry_addr(ptr, geo.next_idx),
                pack_next(max_field(kvs, geo), live_ptr))
            sl.metrics.zombies_unlinked += 1
            kvs = yield from read_chunk(sl, ptr)
            continue
        got = yield from try_lock_chunk(sl, live_ptr)
        if not got:
            attempts = _count_lock_retry(sl, live_ptr, attempts)
            # Re-read our own chunk in case the neighbour merged/zombied.
            kvs = yield from read_chunk(sl, ptr)
            continue
        nkvs = yield from read_chunk(sl, live_ptr)
        return live_ptr, nkvs, kvs
