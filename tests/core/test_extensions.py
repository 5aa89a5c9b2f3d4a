"""Tests for the beyond-paper extensions: range queries, priority-queue
support, and stop-the-world compaction (the paper's future-work item)."""


import pytest

from repro.core import GFSL, bulk_build_into, validate_structure
from repro.core import constants as C
from repro.engine import (OP_CONTAINS, OP_DELETE, OP_INSERT, OpBatch,
                          make_backend)


def build(keys, **kw):
    sl = GFSL(capacity_chunks=1024, team_size=16, seed=2, **kw)
    bulk_build_into(sl, keys, [k % 101 for k in keys])
    return sl


class TestRangeQuery:
    def test_basic(self):
        sl = build(range(10, 110, 10))
        assert sl.range_query(25, 75) == [(30, 30 % 101), (40, 40 % 101),
                                          (50, 50 % 101), (60, 60 % 101),
                                          (70, 70 % 101)]

    def test_inclusive_bounds(self):
        sl = build([10, 20, 30])
        assert [k for k, _ in sl.range_query(10, 30)] == [10, 20, 30]

    def test_empty_window(self):
        sl = build([10, 20, 30])
        assert sl.range_query(11, 19) == []

    def test_inverted_window(self):
        sl = build([10, 20])
        assert sl.range_query(20, 10) == []

    def test_whole_structure(self):
        keys = list(range(5, 500, 5))
        sl = build(keys)
        assert [k for k, _ in sl.range_query(1, C.MAX_USER_KEY)] == keys

    def test_across_chunks(self):
        keys = list(range(1, 400))
        sl = build(keys)
        got = [k for k, _ in sl.range_query(50, 350)]
        assert got == list(range(50, 351))

    def test_after_updates(self):
        sl = build(range(10, 100, 10))
        sl.delete(50)
        sl.insert(55)
        assert [k for k, _ in sl.range_query(40, 60)] == [40, 55, 60]


class TestPriorityQueue:
    def test_min_key(self):
        sl = build([30, 10, 20])
        assert sl.min_key() == 10

    def test_min_key_empty(self):
        sl = GFSL(capacity_chunks=64, team_size=16)
        assert sl.min_key() is None

    def test_pop_min_sequence(self):
        sl = build([5, 3, 9, 1])
        assert [sl.pop_min() for _ in range(4)] == [1, 3, 5, 9]
        assert sl.pop_min() is None

    def test_pop_min_with_concurrent_pops(self):
        keys = list(range(10, 200, 10))
        sl = build(keys)
        gens = [sl.pop_min_gen() for _ in range(len(keys))]
        results = sl.ctx.run_concurrent(gens, seed=3)
        popped = sorted(r.value for r in results)
        assert popped == sorted(keys)  # every pop got a distinct key
        assert len(sl) == 0


class TestCompact:
    def test_compact_reclaims_zombies(self):
        sl = GFSL(capacity_chunks=2048, team_size=16, seed=5)
        keys = list(range(1, 1200))
        for k in keys:
            sl.insert(k)
        for k in keys:
            if k % 4 != 0:
                sl.delete(k)
        assert sl.metrics.merges > 0
        before_items = sl.items()
        allocated_before = sl.pool.allocated(sl.ctx.mem)
        reclaimed = sl.compact()
        assert reclaimed > 0
        assert sl.items() == before_items
        assert sl.zombie_count() == 0
        assert sl.pool.allocated(sl.ctx.mem) < allocated_before
        validate_structure(sl)

    def test_compact_empty(self):
        sl = GFSL(capacity_chunks=64, team_size=16)
        sl.compact()
        assert sl.keys() == []
        assert sl.insert(5)

    def test_usable_after_compact(self):
        sl = build(range(10, 500, 10))
        sl.compact()
        assert sl.insert(15)
        assert sl.delete(20)
        assert sl.contains(15)
        validate_structure(sl)


class TestOpStats:
    def test_counters_track(self):
        sl = GFSL(capacity_chunks=256, team_size=16, seed=1)
        for k in range(1, 60):
            sl.insert(k)
        sl.contains(5)
        sl.delete(5)
        s = sl.metrics
        assert s.inserts == 59
        assert s.contains_calls == 1
        assert s.deletes == 1
        assert s.splits > 0

    def test_reset(self):
        sl = GFSL(capacity_chunks=256, team_size=16, seed=1)
        sl.insert(1)
        sl.metrics.reset()
        assert sl.metrics.inserts == 0


class TestUpdate:
    def test_update_existing(self):
        sl = build([10, 20, 30])
        assert sl.update(20, 777)
        assert sl.get(20) == 777
        assert len(sl) == 3

    def test_update_absent(self):
        sl = build([10])
        assert not sl.update(11, 5)
        assert sl.get(11) is None

    def test_update_preserves_order(self):
        sl = build(range(10, 200, 10))
        for k in range(10, 200, 10):
            assert sl.update(k, k + 1)
        from repro.core import validate_structure
        validate_structure(sl)
        assert sl.items() == [(k, k + 1) for k in range(10, 200, 10)]

    def test_update_value_bounds(self):
        sl = build([10])
        with pytest.raises(ValueError):
            sl.update(10, 2**32)

    def test_concurrent_updates_last_writer_wins(self):
        sl = build([50])
        gens = [sl.update_gen(50, v) for v in (1, 2, 3, 4)]
        results = sl.ctx.run_concurrent(gens, seed=9)
        assert all(r.value for r in results)
        assert sl.get(50) in (1, 2, 3, 4)

    def test_update_during_reads(self):
        sl = build(range(10, 100, 10))
        gens = [sl.update_gen(50, 123)] + \
               [sl.get_gen(50) for _ in range(6)]
        results = sl.ctx.run_concurrent(gens, seed=4)
        for r in results[1:]:
            assert r.value in (50 % 101, 123)  # old or new, never torn


class TestMaxKey:
    def test_max_key(self):
        sl = build([5, 99, 42])
        assert sl.max_key() == 99

    def test_max_key_empty(self):
        sl = GFSL(capacity_chunks=64, team_size=16)
        assert sl.max_key() is None

    def test_max_tracks_deletes(self):
        sl = build([10, 20, 30])
        sl.delete(30)
        assert sl.max_key() == 20

    def test_min_max_agree_on_singleton(self):
        sl = build([77])
        assert sl.min_key() == sl.max_key() == 77


class TestSuccessorPredecessor:
    def test_successor_basic(self):
        sl = build([10, 20, 30])
        assert sl.successor(15) == (20, 20 % 101)
        assert sl.successor(20) == (20, 20 % 101)
        assert sl.successor(31) is None

    def test_predecessor_basic(self):
        sl = build([10, 20, 30])
        assert sl.predecessor(25) == (20, 20 % 101)
        assert sl.predecessor(20) == (20, 20 % 101)
        assert sl.predecessor(9) is None

    def test_navigation_spans_chunks(self):
        keys = list(range(1, 500, 2))
        sl = build(keys)
        for probe in (2, 100, 244, 498):
            succ = min((k for k in keys if k >= probe), default=None)
            pred = max((k for k in keys if k <= probe), default=None)
            got_s = sl.successor(probe)
            got_p = sl.predecessor(probe)
            assert (got_s[0] if got_s else None) == succ
            assert (got_p[0] if got_p else None) == pred

    def test_empty_structure(self):
        sl = GFSL(capacity_chunks=64, team_size=16)
        assert sl.successor(5) is None
        assert sl.predecessor(5) is None

    def test_navigation_after_deletes(self):
        sl = build([10, 20, 30, 40])
        sl.delete(20)
        sl.delete(30)
        assert sl.successor(15) == (40, 40 % 101)
        assert sl.predecessor(35) == (10, 10 % 101)


class TestBatchAPI:
    """The one batch API: every op of a batch races the others in one
    interleaved wave (``execute_batch`` with a seeded backend)."""

    @staticmethod
    def run(sl, op, keys, seed, values=None):
        batch = OpBatch(ops=[op] * len(keys), keys=keys, values=values)
        backend = make_backend("interleaved", seed=seed)
        return sl.execute_batch(batch, backend=backend).results

    def test_insert_batch_reports_duplicates(self):
        sl = build([10])
        assert self.run(sl, OP_INSERT, [10, 11, 12], seed=1,
                        values=[0, 1, 2]) == [False, True, True]

    def test_contains_batch(self):
        sl = build([10, 30])
        assert self.run(sl, OP_CONTAINS, [10, 20, 30],
                        seed=2) == [True, False, True]

    def test_delete_batch(self):
        sl = build([10, 20, 30])
        assert self.run(sl, OP_DELETE, [20, 25], seed=3) == [True, False]
        assert sl.keys() == [10, 30]

    def test_batch_racing_duplicates_single_winner(self):
        sl = build([])
        res = self.run(sl, OP_INSERT, [7] * 5, seed=4)
        assert sum(res) == 1
        assert sl.keys() == [7]
