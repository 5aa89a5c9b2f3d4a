"""Cross-shard consistent cuts over a :class:`ShardedMap` (DESIGN.md §13).

All shards share one :class:`GPUContext`, hence one epoch manager — so
a :class:`ShardedSnapshot` is **one** pin freezing every shard at the
same instant.  The capability is gated: a partitioned map over shards
without snapshot support must not grow the API.
"""

import numpy as np
import pytest

from repro.engine import OpBatch, make_structure
from repro.engine.batch import OP_DELETE, OP_INSERT
from repro.workloads import MIX_10_10_80, generate


def sharded(kind="gfsl@4", seed=2, n_keys=160):
    wl = generate(MIX_10_10_80, key_range=1000, n_ops=16, seed=seed)
    sm = make_structure(kind, wl, seed=seed)
    for k in range(1, n_keys + 1):
        sm.insert(k * 5, value=k)
    return sm


class TestCrossShardCut:
    def test_single_pin_freezes_every_shard(self):
        sm = sharded()
        mgr = sm.ctx.epochs
        pre = sm.items()
        with sm.begin_snapshot() as snap:
            assert mgr.active_pins == 1            # one pin, four shards
            assert len(snap.views) == sm.n_shards
            for k in range(1, 400, 7):             # hits every shard
                sm.insert(k, value=0)
            for k in range(5, 400, 35):
                sm.delete(k)
            assert snap.items() == sorted(pre)
            assert snap.range_query(50, 500) == [
                kv for kv in sorted(pre) if 50 <= kv[0] <= 500]
        assert mgr.active_pins == 0

    def test_range_query_rebased_onto_one_cut(self):
        sm = sharded()
        assert sm.chunked
        expect = [kv for kv in sorted(sm.items()) if 100 <= kv[0] <= 600]
        assert sm.range_query(100, 600) == expect
        with sm.begin_snapshot() as snap:
            assert snap.range_query(100, 600) == expect

    def test_release_reclaims_and_uninstalls(self):
        sm = sharded()
        mgr = sm.ctx.epochs
        snap = sm.begin_snapshot()
        for k in range(1, 200, 3):
            sm.insert(k, value=9)
        assert mgr.retained > 0
        snap.release()
        assert mgr.retained == mgr.reclaimed
        assert not mgr._versions and not mgr._last_mod
        assert sm.ctx.mem.write_barrier is None

    def test_snapshot_view_epochs_match_across_shards(self):
        sm = sharded()
        with sm.begin_snapshot() as snap:
            epochs = {v.epoch for v in snap.views}
            assert epochs == {snap.epoch}


class TestCapabilityGate:
    def test_mc_shards_expose_no_snapshot_api(self):
        """M&C is not chunked (the registry's flag) → the partitioned
        map's snapshot API, fused kernels and ordered queries raise a
        ``TypeError`` naming the kind instead of answering empty."""
        sm = sharded(kind="mc@2", n_keys=40)
        assert not sm.chunked
        assert len(sm.items()) > 0
        keys = np.asarray(sm.keys()[:3], dtype=np.int64)
        ops = np.full(keys.size, OP_INSERT)
        for call in (lambda: sm.range_query(1, 1000), sm.min_key,
                     sm.max_key, lambda: sm.get(sm.keys()[0]),
                     sm.begin_snapshot,
                     lambda: sm.vector_contains(keys),
                     lambda: sm.vector_search(keys),
                     lambda: sm.vector_update_wave(ops, keys, keys)):
            with pytest.raises(TypeError, match="mc@2"):
                call()

    def test_mc_shards_have_no_zombies_to_count_or_compact(self):
        sm = sharded(kind="mc@2", n_keys=40)
        assert sm.zombie_count() == 0
        assert sm.compact() == 0
        assert sm.geo is None


class TestShardedBatchCommit:
    def test_batch_commit_all_or_nothing_across_shards(self):
        sm = sharded()
        pre = sorted(sm.items())
        keys = np.arange(1001, 1061)               # spread over shards
        batch = OpBatch(ops=np.full(keys.size, OP_INSERT), keys=keys,
                        values=keys * 2)
        mgr = sm.ctx.epochs
        with mgr.commit():
            snap = sm.begin_snapshot()
            sm.execute_batch(batch, backend="vectorized", commit="batch")
            assert snap.items() == pre             # invisible mid-commit
        try:
            assert snap.items() == pre
        finally:
            snap.release()
        post = dict(sm.items())
        assert all(post.get(int(k)) == int(k) * 2 for k in keys)
        assert mgr.epoch > 1 and mgr.active_pins == 0

    def test_batch_commit_deletes_flip_with_inserts(self):
        sm = sharded()
        live = [k for k, _ in sorted(sm.items())][:20]
        ins = np.arange(2001, 2021)
        ops = np.concatenate([np.full(ins.size, OP_INSERT),
                              np.full(len(live), OP_DELETE)])
        batch = OpBatch(ops=ops, keys=np.concatenate([ins, np.array(live)]),
                        values=np.concatenate([ins, np.zeros(len(live),
                                                             dtype=np.int64)]))
        sm.execute_batch(batch, backend="interleaved", commit="batch")
        post = dict(sm.items())
        assert all(int(k) in post for k in ins)
        assert all(k not in post for k in live)


class TestSnapshotsDuringConcurrentKernels:
    def test_cut_stable_across_interleaved_wave(self):
        """A snapshot held across a genuinely interleaved multi-shard
        kernel launch stays frozen."""
        sm = sharded()
        pre = sorted(sm.items())
        gens = [sm.insert_gen(k) for k in range(3, 900, 11)]
        with sm.begin_snapshot() as snap:
            sm.ctx.run_concurrent(gens, seed=3)
            assert snap.items() == pre
        assert len(sm.items()) > len(pre)


def test_mc_snapshot_reader_request_rejected_by_chaos():
    from repro.chaos import ChaosHooks
    from repro.engine import InterleavedBackend

    be = InterleavedBackend(seed=1, chaos=ChaosHooks(snapshot_readers=1))
    sm = sharded(kind="mc@2", n_keys=10)
    wl = generate(MIX_10_10_80, key_range=100, n_ops=8, seed=1)
    with pytest.raises(ValueError, match="snapshot"):
        be.execute(sm, OpBatch.from_workload(wl))
