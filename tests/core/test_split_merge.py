"""White-box tests for split/merge mechanics and their write ordering.

The paper's correctness argument (§4.3) rests on *how* entries move:
inserts shift right-to-left, removals shift left-to-right, split sources
are emptied top-down, and the max field changes before any key becomes
unreachable.  These tests record the write sequences and assert those
orders, and they check the structural outcomes of forced splits/merges.
"""

import numpy as np

from repro.core import GFSL, validate_structure
from repro.core import constants as C
from repro.core.chunk import keys_vec
from repro.core.validate import level_chain, read_chunk_host
from repro.core.validate import level_items
from repro.gpu import events as ev
from repro.gpu.scheduler import execute_event


def fresh(team_size=16, seed=1):
    return GFSL(capacity_chunks=512, team_size=team_size, seed=seed)


def recorded_writes(sl, gen):
    """Run a generator, returning the WordWrite events in order."""
    writes = []
    try:
        event = next(gen)
        while True:
            if isinstance(event, ev.WordWrite):
                writes.append(event)
            result = execute_event(event, sl.ctx.mem, None)
            event = gen.send(result)
    except StopIteration:
        pass
    return writes


def bottom_chunks(sl):
    return [(p, kvs) for p, kvs in level_chain(sl, 0)
            if int(kvs[sl.geo.lock_idx]) != C.ZOMBIE]


def chunk_holding(sl, key):
    """The live bottom-level chunk currently containing ``key``."""
    for ptr, kvs in bottom_chunks(sl):
        if (keys_vec(kvs)[: sl.geo.dsize] == key).any():
            return ptr
    raise AssertionError(f"key {key} not found")


def data_writes_to(sl, writes, chunk_ptr):
    base = sl.layout.chunk_addr(chunk_ptr)
    return [w for w in writes if base <= w.addr < base + sl.geo.dsize]


class TestSplit:
    def test_split_divides_entries(self):
        sl = fresh()
        n = sl.geo.dsize + 2
        for k in range(1, n + 1):
            sl.insert(k)
        assert sl.metrics.splits >= 1
        assert len(bottom_chunks(sl)) >= 2
        assert sl.keys() == list(range(1, n + 1))
        validate_structure(sl)

    def test_split_raises_key_with_p_chunk_1(self):
        sl = fresh()
        for k in range(1, sl.geo.dsize + 2):
            sl.insert(k)
        # p_chunk = 1 → the split must have raised a key to level 1.
        assert level_items(sl, 1) != []
        validate_structure(sl)

    def test_no_raise_with_p_chunk_0(self):
        sl = GFSL(capacity_chunks=512, team_size=16, p_chunk=0.0, seed=1)
        for k in range(1, 100):
            sl.insert(k)
        assert level_items(sl, 1) == []
        assert sl.keys() == list(range(1, 100))
        validate_structure(sl, check_subsets=False, check_down_ptrs=False)

    def _fill_first_chunk(self, sl):
        """Insert keys until the enclosing chunk of key 1 is full; the
        next insert into it must split."""
        k = 0
        while True:
            k += 1
            sl.insert(k * 10)
            ptr = chunk_holding(sl, 10)
            kvs = read_chunk_host(sl, ptr)
            from repro.core.chunk import num_live_entries
            if num_live_entries(kvs, sl.geo) == sl.geo.dsize:
                return ptr, k

    def test_split_source_emptied_high_lanes_first(self):
        """splitCopy empties moved entries from the highest tId down —
        concurrent readers rely on higher-lane precedence."""
        sl = fresh()
        ptr, k = self._fill_first_chunk(sl)
        writes = recorded_writes(sl, sl.insert_gen(15))  # lands in ptr
        empt = [w.addr for w in data_writes_to(sl, writes, ptr)
                if C.key_of(w.value) == C.EMPTY_KEY]
        assert empt, "split must empty moved entries"
        assert empt == sorted(empt, reverse=True)

    def test_split_publication_single_word(self):
        """The split is published by exactly one write to the source's
        NEXT word that simultaneously lowers max and redirects next, and
        it precedes the emptying of the source."""
        sl = fresh()
        ptr, _ = self._fill_first_chunk(sl)
        next_addr = sl.layout.entry_addr(ptr, sl.geo.next_idx)
        old_max = C.key_of(
            int(read_chunk_host(sl, ptr)[sl.geo.next_idx]))
        writes = recorded_writes(sl, sl.insert_gen(15))
        pubs = [w for w in writes if w.addr == next_addr]
        assert len(pubs) == 1
        assert C.key_of(pubs[0].value) < old_max or old_max == C.EMPTY_KEY
        empty_idx = [i for i, w in enumerate(writes)
                     if w in data_writes_to(sl, writes, ptr)
                     and C.key_of(w.value) == C.EMPTY_KEY]
        assert writes.index(pubs[0]) < min(empty_idx)

    def test_max_field_never_increases(self):
        """§4.3: a chunk's max only decreases after allocation."""
        sl = fresh(seed=4)
        import random
        rng = random.Random(0)
        maxes = {}
        keys = rng.sample(range(1, 10**5), 400)
        for k in keys:
            sl.insert(k)
            for ptr, kvs in level_chain(sl, 0):
                m = int(keys_vec(kvs)[sl.geo.next_idx])
                if ptr in maxes:
                    assert m <= maxes[ptr], f"max grew on chunk {ptr}"
                maxes[ptr] = m


class TestInsertShift:
    def test_insert_writes_right_to_left(self):
        """executeInsert writes from the highest shifted lane down to the
        insertion index (Figure 4.3) so no key transiently disappears."""
        sl = fresh()
        for k in (10, 20, 30, 40, 50):
            sl.insert(k)
        ptr = chunk_holding(sl, 10)
        writes = recorded_writes(sl, sl.insert_gen(25))
        dw = data_writes_to(sl, writes, ptr)
        addrs = [w.addr for w in dw]
        assert addrs == sorted(addrs, reverse=True)
        assert C.key_of(dw[-1].value) == 25

    def test_insert_shift_never_loses_keys_midway(self):
        """Replay an insert one write at a time; after every single write
        every pre-existing key is still visible somewhere in the chunk
        (possibly duplicated, never missing)."""
        sl = fresh()
        present = [10, 20, 30, 40, 50]
        for k in present:
            sl.insert(k)
        ptr = chunk_holding(sl, 10)
        gen = sl.insert_gen(25)
        try:
            event = next(gen)
            while True:
                result = execute_event(event, sl.ctx.mem, None)
                kvs = read_chunk_host(sl, ptr)
                chunk_keys = set(int(x) for x in keys_vec(kvs)[: sl.geo.dsize])
                for k in present:
                    assert k in chunk_keys, f"key {k} vanished mid-insert"
                event = gen.send(result)
        except StopIteration:
            pass


class TestRemoveShift:
    def test_remove_writes_left_to_right(self):
        sl = fresh()
        for k in (10, 20, 30, 40, 50, 60, 70):
            sl.insert(k)
        ptr = chunk_holding(sl, 20)
        writes = recorded_writes(sl, sl.delete_gen(20))
        addrs = [w.addr for w in data_writes_to(sl, writes, ptr)]
        assert addrs == sorted(addrs)

    def test_remove_shift_never_loses_other_keys(self):
        sl = fresh()
        present = [10, 20, 30, 40, 50, 60, 70]
        for k in present:
            sl.insert(k)
        ptr = chunk_holding(sl, 20)
        gen = sl.delete_gen(40)
        try:
            event = next(gen)
            while True:
                result = execute_event(event, sl.ctx.mem, None)
                kvs = read_chunk_host(sl, ptr)
                chunk_keys = set(int(x) for x in keys_vec(kvs)[: sl.geo.dsize])
                for k in present:
                    if k != 40:
                        assert k in chunk_keys
                event = gen.send(result)
        except StopIteration:
            pass

    def test_max_updated_before_shift_when_deleting_max(self):
        """When the chunk maximum is deleted, the NEXT word write must
        precede the data shifts (§4.2.3)."""
        sl = fresh()
        for k in range(1, 2 * sl.geo.dsize):
            sl.insert(k)
        # Find a non-last chunk and delete its max key.
        chunks = bottom_chunks(sl)
        ptr, kvs = chunks[0]
        max_key = int(keys_vec(kvs)[sl.geo.next_idx])
        assert max_key != C.EMPTY_KEY
        next_addr = sl.layout.entry_addr(ptr, sl.geo.next_idx)
        writes = recorded_writes(sl, sl.delete_gen(max_key))
        next_i = [i for i, w in enumerate(writes) if w.addr == next_addr]
        data_i = [i for i, w in enumerate(writes)
                  if w in data_writes_to(sl, writes, ptr)]
        assert next_i and data_i
        assert next_i[0] < data_i[0]


class TestMerge:
    def _force_merge(self, sl):
        """Build several chunks, then drain one until it merges."""
        n = 3 * sl.geo.dsize
        for k in range(1, n + 1):
            sl.insert(k)
        merges_before = sl.metrics.merges
        deleted = []
        for k in range(1, n + 1):
            sl.delete(k)
            deleted.append(k)
            if sl.metrics.merges > merges_before:
                return deleted, n
        raise AssertionError("no merge triggered")

    def test_merge_marks_zombie(self):
        sl = fresh()
        deleted, n = self._force_merge(sl)
        assert sl.zombie_count() >= 1
        assert sl.keys() == [k for k in range(1, n + 1) if k not in deleted]
        validate_structure(sl)

    def test_zombie_contents_frozen(self):
        """§4.1: a zombie's contents never change after the mark."""
        sl = fresh()
        self._force_merge(sl)
        zombies = [(p, read_chunk_host(sl, p).copy())
                   for p, kvs in level_chain(sl, 0)
                   if int(kvs[sl.geo.lock_idx]) == C.ZOMBIE]
        assert zombies
        for k in range(2000, 2100):
            sl.insert(k)
        for k in range(2000, 2050):
            sl.delete(k)
        for ptr, snap in zombies:
            assert np.array_equal(read_chunk_host(sl, ptr), snap)

    def test_merge_preserves_all_other_keys(self):
        sl = fresh(seed=7)
        import random
        rng = random.Random(1)
        keys = sorted(rng.sample(range(1, 5000), 300))
        for k in keys:
            sl.insert(k)
        survivors = set(keys)
        # Delete 80% of keys: guaranteed to cross merge thresholds.
        for k in keys:
            if k % 5 != 0:
                sl.delete(k)
                survivors.discard(k)
        assert sl.keys() == sorted(survivors)
        assert sl.metrics.merges > 0
        validate_structure(sl)

    def test_merge_copy_right_to_left(self):
        """executeRemoveMerge writes the target chunk in descending slot
        order (Figure 4.5c)."""
        sl = fresh()
        n = 3 * sl.geo.dsize
        for k in range(1, n + 1):
            sl.insert(k)
        merges_before = sl.metrics.merges
        k = 0
        while sl.metrics.merges == merges_before:
            k += 1
            # Record writes only once close to threshold.
            src = chunk_holding(sl, k) if sl.contains(k) else None
            writes = recorded_writes(sl, sl.delete_gen(k))
            if sl.metrics.merges > merges_before:
                # The final merge's target-chunk writes must be descending.
                targets = {}
                for w in writes:
                    cp = sl.layout.ptr_of_addr(w.addr)
                    base = sl.layout.chunk_addr(cp)
                    if 0 <= w.addr - base < sl.geo.dsize and cp != src:
                        targets.setdefault(cp, []).append(w.addr)
                merge_seqs = [seq for seq in targets.values() if len(seq) > 1]
                assert merge_seqs
                assert any(seq == sorted(seq, reverse=True)
                           for seq in merge_seqs)
                break

    def test_last_chunk_never_zombie(self):
        sl = fresh()
        for k in range(1, 200):
            sl.insert(k)
        for k in range(199, 0, -1):
            sl.delete(k)
        for level in range(3):
            chain = list(level_chain(sl, level))
            if chain:
                _p, last = chain[-1]
                assert int(last[sl.geo.lock_idx]) != C.ZOMBIE

    def test_empty_then_refill_level(self):
        sl = fresh()
        for k in range(1, 120):
            sl.insert(k)
        for k in range(1, 120):
            sl.delete(k)
        assert sl.keys() == []
        for k in range(1, 120):
            assert sl.insert(k)
        assert sl.keys() == list(range(1, 120))
        validate_structure(sl)

    def test_delete_from_last_chunk_no_merge(self):
        """The last chunk in a level is drained in place, never merged
        (§4.2.3, 'Deleting From Last Chunk in Level')."""
        sl = fresh()
        for k in range(1, sl.geo.dsize + 2):
            sl.insert(k)
        merges_before = sl.metrics.merges
        # Drain the rightmost chunk completely.
        for k in range(sl.geo.dsize + 1, 0, -1):
            sl.delete(k)
        # Merges may occur in left chunks, but the structure must stay
        # valid and empty.
        assert sl.keys() == []
        validate_structure(sl)
