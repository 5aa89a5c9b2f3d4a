"""Atomic batch commits through the engine backends (DESIGN.md §13).

``commit="batch"`` must publish a whole :class:`OpBatch` at one epoch
bump on every backend: a snapshot pinned while the batch runs sees none
of it (all-or-nothing), a snapshot pinned after sees all of it.  The
commit mode belongs to the call: one ``repro.engine.execute_batch``
body serves every structure kind, M&C and sharded maps included.
"""

import numpy as np
import pytest

import repro.engine
from repro.baseline import MCSkiplist
from repro.core import GFSL
from repro.engine import BACKEND_NAMES, OpBatch, make_structure
from repro.engine.backends import COMMIT_MODES, commit_scope
from repro.engine.batch import OP_DELETE, OP_INSERT
from repro.shard import ShardedMap
from repro.workloads import MIX_20_20_60, generate

BACKENDS = ("sequential", "interleaved", "vectorized")
KINDS = ("gfsl", "pq", "mc", "gfsl@2", "pq@2", "mc@2")


def fresh(seed=1):
    sl = GFSL(capacity_chunks=512, team_size=8, seed=seed)
    for k in range(10, 200, 10):
        sl.insert(k, value=k)
    return sl


def mixed_batch():
    """Inserts of fresh keys plus deletes of prefilled ones — both op
    kinds must flip atomically."""
    ins = [(k, k * 7) for k in range(201, 231)]
    dels = [10, 20, 30]
    ops = np.array([OP_INSERT] * len(ins) + [OP_DELETE] * len(dels))
    keys = np.array([k for k, _ in ins] + dels)
    vals = np.array([v for _, v in ins] + [0] * len(dels))
    return OpBatch(ops=ops, keys=keys, values=vals)


class TestCommitScope:
    def test_unknown_mode_rejected(self):
        sl = fresh()
        with pytest.raises(ValueError, match="commit mode"):
            commit_scope(sl, "transactional")
        assert COMMIT_MODES == ("per-op", "batch")

    def test_per_op_scope_never_touches_epochs(self):
        sl = fresh()
        with commit_scope(sl, "per-op"):
            sl.insert(999)
        assert sl.ctx._epochs is None


class TestBatchAtomicity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_commit_snapshot_sees_nothing(self, backend):
        sl = fresh()
        pre = sl.items()
        batch = mixed_batch()
        mgr = sl.ctx.epochs
        with mgr.commit():
            snap = sl.begin_snapshot()      # pinned inside the commit
            sl.execute_batch(batch, backend=backend, commit="batch")
            assert snap.items() == pre      # none of the batch visible
        try:
            # Still the pre-batch cut even after the commit published.
            assert snap.items() == pre
        finally:
            snap.release()
        post = dict(sl.items())
        assert all(post.get(k) == k * 7 for k in range(201, 231))
        assert all(k not in post for k in (10, 20, 30))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_post_commit_snapshot_sees_everything(self, backend):
        sl = fresh()
        sl.execute_batch(mixed_batch(), backend=backend, commit="batch")
        with sl.begin_snapshot() as snap:
            got = dict(snap.items())
        assert all(got.get(k) == k * 7 for k in range(201, 231))
        assert all(k not in got for k in (10, 20, 30))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_result_matches_per_op_replay(self, backend):
        """Commit mode changes publication granularity, never results."""
        batch = mixed_batch()
        a = fresh(seed=5).execute_batch(batch, backend=backend,
                                        commit="per-op")
        b = fresh(seed=5).execute_batch(batch, backend=backend,
                                        commit="batch")
        assert list(a.results) == list(b.results)

    def test_commit_reclaims_when_unpinned(self):
        sl = fresh()
        mgr = sl.ctx.epochs
        sl.execute_batch(mixed_batch(), backend="vectorized",
                         commit="batch")
        assert mgr.active_pins == 0
        assert not mgr._versions and not mgr._last_mod
        assert sl.ctx.mem.write_barrier is None


class TestEveryKindAndBackend:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_commit_equals_per_op_with_one_bump(self, kind, backend):
        """``commit="batch"`` changes only publication: results and final
        items equal the per-op replay, and the epoch bumps exactly once
        — on every registry kind through every backend."""
        w = generate(MIX_20_20_60, key_range=300, n_ops=120, seed=4)
        per_op = make_structure(kind, w, team_size=8)
        a = per_op.execute_batch(w.to_batch(), backend=backend,
                                 commit="per-op")
        st = make_structure(kind, w, team_size=8)
        mgr = st.ctx.epochs
        before = mgr.epoch
        b = st.execute_batch(w.to_batch(), backend=backend, commit="batch")
        assert list(b.results) == list(a.results)
        assert st.items() == per_op.items()
        assert mgr.epoch == before + 1
        assert mgr.active_pins == 0 and not mgr.committing

    @pytest.mark.parametrize("cls", [GFSL, MCSkiplist, ShardedMap])
    def test_structure_methods_delegate_to_the_one_body(self, monkeypatch,
                                                        cls):
        seen = []

        def body(structure, batch, backend="vectorized", commit="per-op"):
            seen.append((structure, batch, backend, commit))
            return "result"

        monkeypatch.setattr(repro.engine, "execute_batch", body)
        marker = object.__new__(cls)
        assert cls.execute_batch(marker, "batch", "sequential",
                                 "batch") == "result"
        assert seen == [(marker, "batch", "sequential", "batch")]

    def test_unknown_commit_mode_refused_before_running(self):
        w = generate(MIX_20_20_60, key_range=300, n_ops=20, seed=4)
        st = make_structure("mc", w)
        before = st.items()
        with pytest.raises(ValueError, match="commit mode"):
            st.execute_batch(w.to_batch(), commit="transactional")
        assert st.items() == before
