"""Snapshot epochs on a single GFSL (DESIGN.md §13).

A pinned snapshot is a frozen consistent cut: it must be stable at
*every* interleaving point while writers split, merge, and republish
chunks underneath it — and with no snapshot ever taken, the epoch
machinery must stay entirely out of the device path (byte-identical
memory, no write barrier installed).
"""

import numpy as np
import pytest

from repro.core import GFSL, validate_structure
from repro.gpu.scheduler import execute_event


def fresh(team_size=8, seed=1, capacity_chunks=512):
    return GFSL(capacity_chunks=capacity_chunks, team_size=team_size,
                seed=seed)


class Stepper:
    """Resumable single-step driver for one device generator: each
    ``step()`` advances the generator by one yielded event and executes
    it, so a test can pause an operation at any interleaving point."""

    def __init__(self, sl, gen):
        self.sl, self.gen = sl, gen
        self.done, self.value = False, None
        self._pending = None
        self._started = False

    def step(self, n=1):
        for _ in range(n):
            if self.done:
                return
            try:
                if not self._started:
                    self._started = True
                    event = next(self.gen)
                else:
                    event = self.gen.send(self._pending)
                self._pending = execute_event(event, self.sl.ctx.mem, None)
            except StopIteration as stop:
                self.done, self.value = True, stop.value

    def run(self):
        while not self.done:
            self.step()
        return self.value


class TestFrozenView:
    def test_snapshot_stable_while_writers_run(self):
        sl = fresh()
        for k in range(10, 200, 10):
            sl.insert(k, value=k * 3)
        pre = sl.items()
        with sl.begin_snapshot() as snap:
            for k in range(5, 200, 10):
                sl.insert(k, value=k)
            for k in range(10, 100, 10):
                sl.delete(k)
            assert snap.items() == pre
            assert snap.range_query(10, 100) == [
                (k, v) for k, v in pre if 10 <= k <= 100]
        assert sl.items() != pre

    def test_scan_during_split_every_interleaving(self):
        """The frozen view is unchanged at *each* device step of a
        split-inducing insert (copy-on-first-write per publication)."""
        sl = fresh(team_size=8)
        for k in range(2, 60, 2):
            sl.insert(k, value=k)
        pre = sl.items()
        mgr = sl.ctx.epochs
        splits_before = mgr.publications.get("split", 0)
        with sl.begin_snapshot() as snap:
            for k in range(1, 61, 2):   # odd keys force splits
                st = Stepper(sl, sl.insert_gen(k, value=k + 1))
                while not st.done:
                    st.step()
                    assert snap.items() == pre
        assert mgr.publications.get("split", 0) > splits_before
        assert validate_structure(sl)["chunks"] > 0
        assert dict(sl.items()) == {**dict(pre),
                                    **{k: k + 1 for k in range(1, 61, 2)}}

    def test_scan_during_merge_every_interleaving(self):
        sl = fresh(team_size=8)
        for k in range(1, 61):
            sl.insert(k, value=k)
        pre = sl.items()
        mgr = sl.ctx.epochs
        merges_before = mgr.publications.get("merge", 0)
        with sl.begin_snapshot() as snap:
            for k in range(1, 55):      # drain chunks to force merges
                st = Stepper(sl, sl.delete_gen(k))
                while not st.done:
                    st.step()
                    assert snap.items() == pre
        assert mgr.publications.get("merge", 0) > merges_before
        assert sl.keys() == list(range(55, 61))

    def test_pin_mid_operation_sees_pre_publish_state(self):
        """A pin taken while an insert is in flight (pre-publication)
        must never observe the insert."""
        sl = fresh()
        for k in range(10, 100, 10):
            sl.insert(k, value=k)
        st = Stepper(sl, sl.insert_gen(55, value=7))
        st.step(3)                                 # still traversing
        assert not st.done
        snap = sl.begin_snapshot()
        try:
            assert st.run() is True                # finish the insert
            assert 55 not in dict(snap.items())
        finally:
            snap.release()
        assert 55 in dict(sl.snapshot_items())

    def test_read_after_release_raises(self):
        sl = fresh()
        sl.insert(5)
        snap = sl.begin_snapshot()
        snap.release()
        with pytest.raises(RuntimeError, match="release"):
            snap.items()


class TestEpochDisabledIdentity:
    def _apply_ops(self, sl, snapshotting: bool):
        rng = np.random.default_rng(7)
        for i in range(120):
            k = int(rng.integers(1, 80))
            op = int(rng.integers(0, 3))
            if op == 0:
                sl.insert(k, value=i)
            elif op == 1:
                sl.delete(k)
            else:
                sl.contains(k)
            if snapshotting and i % 10 == 0:
                with sl.begin_snapshot() as snap:
                    snap.items()
                    snap.range_query(1, 50)

    def test_memory_byte_identical_with_and_without_snapshots(self):
        """Snapshots never write device memory: an identical op stream
        with interspersed pin/read/release cycles ends bit-identical to
        one that never touched the epoch layer."""
        plain, snapped = fresh(seed=3), fresh(seed=3)
        self._apply_ops(plain, snapshotting=False)
        self._apply_ops(snapped, snapshotting=True)
        assert np.array_equal(plain.ctx.mem.raw(), snapped.ctx.mem.raw())
        # The never-snapshotted instance never even built a manager.
        assert plain.ctx._epochs is None
        assert plain.ctx.mem.write_barrier is None

    def test_release_reclaims_and_uninstalls_barrier(self):
        sl = fresh()
        for k in range(10, 100, 10):
            sl.insert(k)
        mgr = sl.ctx.epochs
        with sl.begin_snapshot():
            for k in range(1, 100, 10):
                sl.insert(k)
            assert sl.ctx.mem.write_barrier is not None
            assert mgr.retained > 0
        assert sl.ctx.mem.write_barrier is None
        assert mgr.active_pins == 0
        assert mgr.retained == mgr.reclaimed
        assert not mgr._versions and not mgr._last_mod


class TestCompactGuard:
    def test_compact_refuses_live_pins_then_succeeds(self):
        sl = fresh()
        for k in range(1, 60):
            sl.insert(k)
        for k in range(1, 40):
            sl.delete(k)
        snap = sl.begin_snapshot()
        with pytest.raises(RuntimeError, match="pins"):
            sl.compact()
        snap.release()
        sl.compact()
        assert sl.keys() == list(range(40, 60))
