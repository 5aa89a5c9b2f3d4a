"""Tests for the vectorized update critical sections
(:func:`repro.core.vector.update_wave`) and their conflict-group
partitioner.

The contract under test (DESIGN.md §12): a wave's updates are batched
only when the quiescent snapshot proves no schedule could lock-conflict,
split, merge, or touch an upper level — and then the batched execution
is *byte-identical* to sequential replay.  Every adversarial wave (all
ops on one chunk, split-triggering inserts, delete of a raised key,
merge-triggering deletes) must take the generator fallback and still
produce sequential results.
"""

import numpy as np
import pytest

from repro.core import vector
from repro.engine import OpBatch, make_backend, make_structure
from repro.engine.batch import OP_DELETE, OP_INSERT
from repro.workloads import MIX_10_10_80, generate
from repro.workloads.generator import Workload


def _twin(workload, **kwargs):
    """Two structures built identically (the simulator is pure)."""
    return (make_structure("gfsl", workload, seed=0, **kwargs),
            make_structure("gfsl", workload, seed=0, **kwargs))


def _insert_only_workload(keys, key_range, prefill=()):
    keys = np.asarray(keys, dtype=np.int64)
    return Workload(key_range=key_range, mixture=MIX_10_10_80,
                    prefill=np.asarray(prefill, dtype=np.int64),
                    ops=np.full(keys.size, OP_INSERT, dtype=np.int64),
                    keys=keys,
                    values=np.arange(1, keys.size + 1, dtype=np.int64))


class TestFastPath:
    def test_spread_wave_batches_and_matches_sequential_bytes(self):
        """A wave of distinct-key updates spread across chunks batches
        fully — and because eligibility proves no split/merge/upper-level
        touch, the batched memory image is byte-identical to sequential
        replay of the same ops."""
        w = generate(MIX_10_10_80, key_range=4_000, n_ops=10, seed=3)
        st_v, st_s = _twin(w)
        present = sorted(st_v.keys())
        absent = [k for k in range(1, 4_001) if k not in set(present)]
        # Few ops per chunk: sparse inserts + sparse deletes, all spread.
        ins = absent[::97][:12]
        dels = present[::131][:8]
        keys = np.array(ins + dels, dtype=np.int64)
        ops = np.array([OP_INSERT] * len(ins) + [OP_DELETE] * len(dels),
                       dtype=np.int64)
        vals = np.arange(1, keys.size + 1, dtype=np.int64)

        res, handled, found, paths = st_v.vector_update_wave(
            ops, keys, vals, tracer=None)
        diag = vector.last_call_diag
        assert bool(handled.all()), "spread wave must batch fully"
        assert diag["batched"] == keys.size
        assert diag["fallback_conflict"] == 0
        assert bool(res.all())          # all inserts new, all deletes hit

        for op, k, v in zip(ops.tolist(), keys.tolist(), vals.tolist()):
            if op == OP_INSERT:
                assert st_s.ctx.run(st_s.insert_gen(int(k), int(v)))
            else:
                assert st_s.ctx.run(st_s.delete_gen(int(k)))
        assert np.array_equal(st_v.ctx.mem.raw(), st_s.ctx.mem.raw()), \
            "batched critical sections diverge from sequential bytes"
        assert st_v.metrics.inserts == st_s.metrics.inserts
        assert st_v.metrics.deletes == st_s.metrics.deletes

    def test_trivial_outcomes_resolved_without_batching(self):
        w = generate(MIX_10_10_80, key_range=1_000, n_ops=10, seed=3)
        st, _ = _twin(w)
        present = sorted(st.keys())
        absent = next(k for k in range(1, 1_001) if k not in set(present))
        keys = np.array([present[0], absent], dtype=np.int64)
        ops = np.array([OP_INSERT, OP_DELETE], dtype=np.int64)
        st.metrics.reset()
        res, handled, _f, _p = st.vector_update_wave(
            ops, keys, np.ones(2, dtype=np.int64), tracer=None)
        assert bool(handled.all())
        assert not bool(res.any())      # insert-of-present / delete-of-absent
        assert vector.last_call_diag["batched"] == 0
        assert st.metrics.inserts == 0 and st.metrics.deletes == 0


class TestAdversarialWaves:
    def test_split_triggering_inserts_fall_back_byte_identical(self):
        """All inserts landing in one chunk with more keys than fit: no
        schedule can avoid the split, so the whole cluster must take the
        generator path — and (insert-only ⇒ zombie-free) end up
        byte-identical to the sequential backend."""
        n = 12   # team 8 → dsize 6: any 7+ inserts on one chunk overflow
        w = _insert_only_workload(range(100, 100 + n), key_range=4_096)
        st_v, st_s = _twin(w, team_size=8)

        res_v = make_backend("vectorized").execute(
            st_v, OpBatch.from_workload(w))
        diag = vector.last_call_diag
        assert diag["batched"] == 0
        assert diag["fallback_conflict"] > 0
        res_s = make_backend("sequential").execute(
            st_s, OpBatch.from_workload(w))
        assert res_v.results == res_s.results
        assert st_v.metrics.splits == st_s.metrics.splits > 0
        assert np.array_equal(st_v.ctx.mem.raw(), st_s.ctx.mem.raw()), \
            "fallback replay diverges from sequential bytes"

    def test_delete_of_raised_key_falls_back(self):
        """With p_chunk=1 every split raises its key to the next level;
        deleting that key requires the top-down level sweep, so the
        vectorized wave must hand it to the generator."""
        w = _insert_only_workload([], key_range=4_096)
        st, _ = _twin(w, team_size=8)
        raised = None
        for k in range(10, 200):
            before = st.metrics.splits
            assert st.ctx.run(st.insert_gen(k, 1))
            if st.metrics.splits > before:
                raised = k              # split inserts raise k itself
                break
        assert raised is not None, "no split in 190 inserts?"

        keys = np.array([raised], dtype=np.int64)
        res, handled, found, paths = st.vector_update_wave(
            np.array([OP_DELETE], dtype=np.int64), keys,
            np.zeros(1, dtype=np.int64), tracer=None)
        assert not bool(handled[0]), "upper-level delete must fall back"
        assert vector.last_call_diag["fallback_conflict"] == 1
        assert bool(found[0])
        hint = (bool(found[0]), paths[0].tolist())
        assert st.ctx.run(st.delete_gen(int(raised), hint=hint))
        assert not st.contains(int(raised))

    def test_merge_triggering_deletes_fall_back(self):
        """Deleting enough keys of one chunk to cross the merge
        threshold: some schedule merges, so the cluster is ineligible."""
        w = generate(MIX_10_10_80, key_range=2_000, n_ops=10, seed=9)
        st_v, st_s = _twin(w, team_size=8)
        present = np.array(sorted(st_v.keys()), dtype=np.int64)
        _f, paths = st_v.vector_search(present, tracer=None)
        bottoms, counts = np.unique(paths[:, 0], return_counts=True)
        target = bottoms[np.argmax(counts)]
        doomed = present[paths[:, 0] == target][:5]   # dsize 6: 5 deletes
        assert doomed.size >= 4                       # always cross dsize/3

        ops = np.full(doomed.size, OP_DELETE, dtype=np.int64)
        res, handled, found, paths = st_v.vector_update_wave(
            ops, doomed, np.zeros(doomed.size, dtype=np.int64),
            tracer=None)
        unhandled = ~handled
        assert bool(unhandled.any()), "merge-bound cluster must fall back"
        for i in np.nonzero(unhandled)[0].tolist():
            hint = (bool(found[i]), paths[i].tolist())
            st_v.ctx.run(st_v.delete_gen(int(doomed[i]), hint=hint))
        for k in doomed.tolist():
            assert st_s.ctx.run(st_s.delete_gen(int(k)))
        assert st_v.keys() == st_s.keys()
        assert st_v.items() == st_s.items()


class TestDiagnostics:
    def test_per_call_diag_is_fresh_data(self):
        """Each kernel call returns its own diagnostics object; the
        module alias is a snapshot of the latest call, so concurrent or
        sharded kernel calls can never clobber a caller's numbers."""
        w = generate(MIX_10_10_80, key_range=1_000, n_ops=10, seed=5)
        st, _ = _twin(w)
        vector.vector_contains(st, np.arange(1, 33, dtype=np.int64))
        d1 = vector.last_call_diag
        vector.vector_contains(st, np.arange(1, 9, dtype=np.int64))
        d2 = vector.last_call_diag
        assert d1 is not d2
        assert d1["ops"] == 32 and d2["ops"] == 64 - 56
        d2["ops"] = -1                   # caller mutation stays local
        vector.vector_contains(st, np.arange(1, 2, dtype=np.int64))
        assert vector.last_call_diag["ops"] == 1
        assert d1["ops"] == 32

    def test_update_wave_diag_keys(self):
        w = generate(MIX_10_10_80, key_range=1_000, n_ops=10, seed=5)
        st, _ = _twin(w)
        absent = next(k for k in range(1, 1_001)
                      if k not in set(st.keys()))
        st.vector_update_wave(np.array([OP_INSERT], dtype=np.int64),
                              np.array([absent], dtype=np.int64),
                              np.array([1], dtype=np.int64))
        diag = vector.last_call_diag
        for key in ("ops", "fallback_backtrack", "fallback_restart",
                    "fallback_stuck", "batched", "fallback_conflict"):
            assert key in diag
        assert diag["ops"] == 1 and diag["batched"] == 1


@pytest.mark.parametrize("shards", [1, 4])
def test_sharded_update_wave_matches_sequential(shards):
    """The fused cross-shard dispatch preserves the differential
    contract at every shard count."""
    w = generate(MIX_10_10_80, key_range=2_048, n_ops=400, seed=13)
    kw = {} if shards == 1 else {"shards": shards}
    st_s = make_structure("gfsl", w, seed=0, **kw)
    res_s = make_backend("sequential").execute(st_s, OpBatch.from_workload(w))
    st_v = make_structure("gfsl", w, seed=0, **kw)
    res_v = make_backend("vectorized").execute(st_v, OpBatch.from_workload(w))
    assert res_v.results == res_s.results
    assert st_v.keys() == st_s.keys()
    assert st_v.items() == st_s.items()


@pytest.mark.parametrize("kind", ["gfsl", "gfsl@4"])
def test_groups_publish_in_chunk_order(kind):
    """Batched groups run in ascending (instance, chunk) order whatever
    the wave's op order: it fixes the order of the three phase batches
    the tracer classifies and of the image scatter."""
    w = generate(MIX_10_10_80, key_range=4_000, n_ops=10, seed=3)
    st = make_structure(kind, w, seed=0)
    present = set(st.keys())
    absent = [k for k in range(1, 4_001) if k not in present][::97][:12]
    keys = np.array(absent[::-1], dtype=np.int64)      # descending
    tracer = st.ctx.tracer
    phases = []
    orig = tracer.access_words_batch

    def record(addrs, n_words, **kw):
        phases.append(np.asarray(addrs).tolist())
        return orig(addrs, n_words, **kw)

    tracer.access_words_batch = record
    _res, handled, _f, _p = st.vector_update_wave(
        np.full(keys.size, OP_INSERT, dtype=np.int64), keys,
        np.ones(keys.size, dtype=np.int64), tracer=tracer)
    assert bool(handled.all())
    lock_cas, reread, publish = phases[-3:]
    assert len(reread) == keys.size and reread == sorted(reread)
    assert publish == reread
    assert lock_cas == [a + st.geo.lock_idx for a in reread]
