"""Unit tests for the chunk locking protocol (Algorithm 4.8)."""


from repro.core import GFSL, bulk_build_into
from repro.core import constants as C
from repro.core.chunk import keys_vec
from repro.core.locks import (find_and_lock_enclosing, lock_next_chunk,
                              mark_zombie, try_lock_chunk, unlock_chunk)
from repro.core.traversal import read_chunk
from repro.core.validate import head_ptr_host, level_chain, read_chunk_host


def built(keys=range(10, 500, 10), fill=0.3):
    sl = GFSL(capacity_chunks=1024, team_size=16, p_chunk=0.0, seed=1)
    bulk_build_into(sl, keys, fill=fill)
    return sl


def lock_word(sl, ptr):
    return sl.ctx.mem.read_word(sl.layout.entry_addr(ptr, sl.geo.lock_idx))


class TestTryLock:
    def test_lock_unlock_cycle(self):
        sl = built()
        ptr = head_ptr_host(sl, 0)
        assert sl.ctx.run(try_lock_chunk(sl, ptr))
        assert lock_word(sl, ptr) == C.LOCKED
        sl.ctx.run(unlock_chunk(sl, ptr))
        assert lock_word(sl, ptr) == C.UNLOCKED

    def test_lock_fails_when_held(self):
        sl = built()
        ptr = head_ptr_host(sl, 0)
        assert sl.ctx.run(try_lock_chunk(sl, ptr))
        assert not sl.ctx.run(try_lock_chunk(sl, ptr))

    def test_lock_fails_on_zombie(self):
        sl = built()
        ptr = head_ptr_host(sl, 0)
        sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, sl.geo.lock_idx),
                              C.ZOMBIE)
        assert not sl.ctx.run(try_lock_chunk(sl, ptr))
        assert lock_word(sl, ptr) == C.ZOMBIE  # mark untouched

    def test_mark_zombie_is_terminal(self):
        sl = built()
        ptr = head_ptr_host(sl, 0)
        sl.ctx.run(try_lock_chunk(sl, ptr))
        sl.ctx.run(mark_zombie(sl, ptr))
        assert lock_word(sl, ptr) == C.ZOMBIE


class TestFindAndLockEnclosing:
    def test_locks_enclosing_chunk(self):
        sl = built()
        start = head_ptr_host(sl, 0)
        ptr, kvs = sl.ctx.run(find_and_lock_enclosing(sl, start, 250))
        keys = keys_vec(kvs)[: sl.geo.dsize]
        max_f = int(keys_vec(kvs)[sl.geo.next_idx])
        assert max_f == C.EMPTY_KEY or max_f >= 250
        assert lock_word(sl, ptr) == C.LOCKED
        sl.ctx.run(unlock_chunk(sl, ptr))

    def test_walks_right_from_early_chunk(self):
        sl = built()
        start = head_ptr_host(sl, 0)
        ptr, _ = sl.ctx.run(find_and_lock_enclosing(sl, start, 490))
        # Must not be the head chunk (max −∞ < 490).
        assert ptr != start
        sl.ctx.run(unlock_chunk(sl, ptr))

    def test_skips_zombie_start(self):
        sl = built()
        chain = [p for p, _ in level_chain(sl, 0)]
        victim = chain[1]
        # Freeze the victim as a zombie (contents already merged right in
        # spirit: point searches onward).
        from tests.core.test_traversal_zombies import zombify_chunk
        zombify_chunk(sl, victim)
        ptr, _ = sl.ctx.run(find_and_lock_enclosing(sl, victim, 490))
        assert ptr != victim
        sl.ctx.run(unlock_chunk(sl, ptr))

    def test_spins_until_release(self):
        """A waiter acquires the lock only after the holder releases —
        exercised through the interleaving scheduler."""
        sl = built()
        start = head_ptr_host(sl, 0)

        def holder():
            ptr, _ = yield from find_and_lock_enclosing(sl, start, 250)
            for _ in range(30):  # hold for a while
                yield from read_chunk(sl, ptr)
            yield from unlock_chunk(sl, ptr)
            return ("held", ptr)

        def waiter():
            ptr, _ = yield from find_and_lock_enclosing(sl, start, 250)
            yield from unlock_chunk(sl, ptr)
            return ("waited", ptr)

        res = sl.ctx.run_concurrent([holder(), waiter()])
        assert res[0].value[0] == "held"
        assert res[1].value[0] == "waited"
        assert res[0].value[1] == res[1].value[1]
        # Waiter needed more steps than a lone run would.
        assert res[1].steps > 10


class TestLockNextChunk:
    def test_locks_successor(self):
        sl = built()
        chain = [p for p, _ in level_chain(sl, 0)]
        first, second = chain[0], chain[1]
        sl.ctx.run(try_lock_chunk(sl, first))
        kvs = sl.ctx.run(read_chunk(sl, first))
        nxt, nkvs, _own = sl.ctx.run(lock_next_chunk(sl, first, kvs))
        assert nxt == second
        assert lock_word(sl, second) == C.LOCKED

    def test_returns_none_for_last(self):
        sl = built()
        last = [p for p, _ in level_chain(sl, 0)][-1]
        sl.ctx.run(try_lock_chunk(sl, last))
        kvs = sl.ctx.run(read_chunk(sl, last))
        nxt, nkvs, _own = sl.ctx.run(lock_next_chunk(sl, last, kvs))
        assert nxt is None and nkvs is None

    def test_unlinks_zombie_chain(self):
        sl = built()
        chain = [p for p, _ in level_chain(sl, 0)]
        first, victim, third = chain[0], chain[1], chain[2]
        from tests.core.test_traversal_zombies import zombify_chunk
        zombify_chunk(sl, victim)
        sl.ctx.run(try_lock_chunk(sl, first))
        kvs = sl.ctx.run(read_chunk(sl, first))
        nxt, _nkvs, own = sl.ctx.run(lock_next_chunk(sl, first, kvs))
        assert nxt == third
        # first's next pointer now bypasses the zombie permanently.
        fresh = read_chunk_host(sl, first)
        assert int(fresh[sl.geo.next_idx]) >> 32 == third
