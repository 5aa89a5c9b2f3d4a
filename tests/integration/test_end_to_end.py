"""Integration tests across subsystems: GFSL and M&C driven through the
full benchmark pipeline, cross-checked against each other."""

import random

import pytest

from repro.baseline import MCSkiplist
from repro.baseline import bulk_build_into as mc_bulk
from repro.core import GFSL, bulk_build_into, suggest_capacity, validate_structure
from repro.experiments.harness import Scale, run_point
from repro.workloads import (MIX_10_10_80, Op, generate, run_workload)

TINY = Scale("tiny", (5_000,), 300, 1)


class TestCrossStructure:
    def test_same_workload_same_semantics(self):
        """GFSL and M&C produce identical op results and final key sets
        for the same sequential workload."""
        w = generate(MIX_10_10_80, key_range=3_000, n_ops=400, seed=9)
        sl = GFSL(capacity_chunks=suggest_capacity(3_000), seed=1)
        mc = MCSkiplist(capacity_words=200_000, seed=1)
        bulk_build_into(sl, w.prefill)
        mc_bulk(mc, w.prefill)

        for op, key in zip(w.ops, w.keys):
            k = int(key)
            if op == Op.CONTAINS:
                assert sl.contains(k) == mc.contains(k)
            elif op == Op.INSERT:
                assert sl.insert(k) == mc.insert(k)
            else:
                assert sl.delete(k) == mc.delete(k)
        assert sl.keys() == mc.keys()
        validate_structure(sl)

    def test_pipeline_point_parity(self):
        """run_point over both structures yields comparable, positive
        throughput with the documented cost asymmetry."""
        g = run_point("gfsl", MIX_10_10_80, 5_000, scale=TINY)
        m = run_point("mc", MIX_10_10_80, 5_000, scale=TINY)
        assert g.mean_mops > 0 and m.mean_mops > 0
        assert m.transactions_per_op > 3 * g.transactions_per_op


class TestLifecycles:
    def test_grow_shrink_compact_cycle(self):
        sl = GFSL(capacity_chunks=4096, team_size=16, seed=3)
        rng = random.Random(0)
        live = set()
        for cycle in range(3):
            grow = rng.sample(range(1, 100_000), 800)
            for k in grow:
                if sl.insert(k):
                    live.add(k)
            shrink = rng.sample(sorted(live), len(live) // 2)
            for k in shrink:
                assert sl.delete(k)
                live.discard(k)
            reclaimed = sl.compact()
            assert sl.keys() == sorted(live)
            validate_structure(sl)

    def test_fill_to_capacity_raises_cleanly(self):
        from repro.core.pool import OutOfChunks
        sl = GFSL(capacity_chunks=40, team_size=16, p_chunk=1.0, seed=4)
        with pytest.raises(OutOfChunks):
            for k in range(1, 10_000):
                sl.insert(k)

    def test_deep_structure_many_levels(self):
        """Force a tall tower (tiny chunks, p_chunk=1) and verify
        traversal correctness through 4+ levels."""
        sl = GFSL(capacity_chunks=8192, team_size=8, p_chunk=1.0, seed=5)
        keys = list(range(1, 3000))
        for k in keys:
            sl.insert(k)
        stats = validate_structure(sl)
        assert stats["height"] >= 3
        rng = random.Random(1)
        for k in rng.sample(keys, 200):
            assert sl.contains(k)
        for k in rng.sample(keys, 500):
            assert sl.delete(k)
        validate_structure(sl)


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        a = run_workload("gfsl", generate(MIX_10_10_80, 5_000, 300, seed=2))
        b = run_workload("gfsl", generate(MIX_10_10_80, 5_000, 300, seed=2))
        assert a.mops == pytest.approx(b.mops)
        assert a.stats.transactions == b.stats.transactions
        assert a.stats.tlb_misses == b.stats.tlb_misses

    def test_concurrent_schedule_reproducible(self):
        def run_once():
            sl = GFSL(capacity_chunks=512, team_size=16, seed=6)
            gens = [sl.insert_gen(k) for k in range(10, 500, 10)]
            sl.ctx.run_concurrent(gens, seed=44)
            return sl.keys(), sl.metrics.splits
        assert run_once() == run_once()
