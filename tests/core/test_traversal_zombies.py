"""Traversal behaviour on crafted structures: zombie skipping, lazy
unlinking, head replacement, backtracks, and the lock-free restart."""


from repro.core import GFSL, bulk_build_into, validate_structure
from repro.core import constants as C
from repro.core.chunk import keys_vec
from repro.core.traversal import search_down, search_lateral, search_slow
from repro.core.validate import (head_ptr_host, level_chain, read_chunk_host)
from repro.gpu import events as ev
from repro.gpu.scheduler import execute_event


def built(keys, team_size=16, seed=1, p_chunk=1.0, fill=None):
    sl = GFSL(capacity_chunks=1024, team_size=team_size, p_chunk=p_chunk,
              seed=seed)
    kwargs = {} if fill is None else {"fill": fill}
    bulk_build_into(sl, keys, [k % 97 for k in keys], rng=sl.rng, **kwargs)
    return sl


def zombify_chunk(sl, victim_ptr):
    """Host-side surgical merge: move victim's live entries into its
    successor and mark it zombie — simulating a completed merge whose
    pointers have not been redirected yet."""
    geo = sl.geo
    mem = sl.ctx.mem
    vk = read_chunk_host(sl, victim_ptr)
    nxt = int(vk[geo.next_idx]) >> 32
    assert nxt != C.NULL_PTR, "cannot zombify the last chunk"
    nk = read_chunk_host(sl, nxt)
    moved = [int(w) for w in vk[: geo.dsize]
             if (int(w) & C.MASK32) != C.EMPTY_KEY]
    orig = [int(w) for w in nk[: geo.dsize]
            if (int(w) & C.MASK32) != C.EMPTY_KEY]
    merged = moved + orig
    assert len(merged) <= geo.dsize
    for i, w in enumerate(merged):
        mem.write_word(sl.layout.entry_addr(nxt, i), w)
    mem.write_word(sl.layout.entry_addr(victim_ptr, geo.lock_idx), C.ZOMBIE)
    return nxt


class TestBacktrack:
    def test_search_finds_keys_needing_backtrack(self):
        """Keys between a raised key and its chunk minimum require the
        backtrack path."""
        sl = built(range(10, 2000, 10))
        # every key findable, including ones that trigger backtracks
        for k in range(10, 2000, 10):
            assert sl.contains(k)
        for k in range(11, 200, 10):
            assert not sl.contains(k)


class TestZombieSkipping:
    def test_contains_sees_through_zombie(self):
        sl = built(range(10, 500, 10), fill=0.3)
        # Zombify the second data chunk in the bottom level.
        chain = [p for p, kv in level_chain(sl, 0)]
        victim = chain[1]
        moved_keys = [int(x) for x in
                      keys_vec(read_chunk_host(sl, victim))[: sl.geo.dsize]
                      if int(x) != C.EMPTY_KEY and int(x) != C.NEG_INF_KEY]
        zombify_chunk(sl, victim)
        for k in moved_keys:
            assert sl.contains(k), f"key {k} lost behind zombie"
        for k in range(10, 500, 10):
            assert sl.contains(k)

    def test_search_slow_unlinks_zombie_laterally(self):
        """An update traversal that walks over a zombie chain redirects
        the predecessor's next pointer (Algorithm 4.6)."""
        sl = built(range(10, 500, 10), p_chunk=0.0, fill=0.3)  # flat: all lateral
        chain = [p for p, kv in level_chain(sl, 0)]
        victim = chain[2]
        zombify_chunk(sl, victim)
        before = sl.metrics.zombies_unlinked
        # An insert whose key lies beyond the zombie walks over it.
        assert sl.insert(10_001)
        assert sl.metrics.zombies_unlinked > before
        assert victim not in [p for p, kv in level_chain(sl, 0)]

    def test_head_swings_off_zombie_first_chunk(self):
        sl = built(range(10, 300, 10), p_chunk=0.0, fill=0.3)
        first = head_ptr_host(sl, 0)
        new_first = zombify_chunk(sl, first)
        assert sl.insert(10_001)  # search_slow starts at the zombie head
        assert head_ptr_host(sl, 0) != first

    def test_zombie_chain_of_two(self):
        sl = built(range(10, 800, 10), p_chunk=0.0, fill=0.2)
        chain = [p for p, kv in level_chain(sl, 0)]
        second = zombify_chunk(sl, chain[2])
        zombify_chunk(sl, second)
        for k in range(10, 800, 10):
            assert sl.contains(k)
        assert sl.insert(10_001)
        validate_structure(sl, check_subsets=False, check_down_ptrs=False)


class TestSearchFunctions:
    def test_search_down_reaches_enclosing_region(self):
        sl = built(range(100, 5000, 100))
        for k in (100, 2500, 4900):
            ptr = sl.ctx.run(search_down(sl, k))
            found, enc = sl.ctx.run_untraced(search_lateral(sl, k, ptr))
            assert found

    def test_search_slow_path_levels(self):
        sl = built(range(10, 3000, 10))
        found, path = sl.ctx.run(search_slow(sl, 1500))
        assert found
        # path[0] encloses the key
        kvs = read_chunk_host(sl, path[0])
        assert (keys_vec(kvs)[: sl.geo.dsize] == 1500).any()
        # every path entry is a valid chunk pointer
        for ptr in path:
            assert 0 <= ptr < sl.layout.capacity_chunks

    def test_search_slow_not_found(self):
        sl = built(range(10, 300, 10))
        found, path = sl.ctx.run(search_slow(sl, 15))
        assert not found


class TestLockFreeRestart:
    def test_restart_when_down_key_concurrently_deleted(self):
        """Reproduce §4.2.1's edge case deterministically: pause a
        Contains right after its down step, delete the keys it depended
        on, resume — the Contains must restart and still answer
        correctly."""
        sl = built(range(10, 4000, 10))
        target = 3990
        gen = sl.contains_gen(target)
        # Advance the contains a few steps (past the head read + first
        # chunk read), then perform deletions that strand it.
        steps = 0
        event = next(gen)
        while steps < 3:
            result = execute_event(event, sl.ctx.mem, None)
            event = gen.send(result)
            steps += 1
        # Delete a swath of keys below the target so the paused
        # traversal's snapshot becomes stale.
        for k in range(3000, 3990, 10):
            sl.delete(k)
        # Resume: must terminate with the right answer regardless.
        try:
            while True:
                result = execute_event(event, sl.ctx.mem, None)
                event = gen.send(result)
        except StopIteration as stop:
            assert stop.value is True

    def test_contains_terminates_while_lock_held(self):
        """Contains is lock-free: it completes even when another team
        holds a chunk lock indefinitely (a stalled insert)."""
        sl = built(range(10, 300, 10))
        ins = sl.insert_gen(15)
        # Drive the insert until it has locked the bottom chunk.
        event = next(ins)
        locked = False
        for _ in range(500):
            result = execute_event(event, sl.ctx.mem, None)
            if isinstance(event, ev.WordCAS) and result == C.UNLOCKED:
                locked = True
                break
            event = ins.send(result)
        assert locked, "insert never took the lock"
        # The insert is now suspended holding the lock; a contains on a
        # key in the SAME chunk must still finish.
        assert sl.contains(20)
        assert not sl.contains(15)
        # Resume and finish the insert.
        try:
            event = ins.send(result)
            while True:
                result = execute_event(event, sl.ctx.mem, None)
                event = ins.send(result)
        except StopIteration as stop:
            assert stop.value is True
        assert sl.contains(15)
