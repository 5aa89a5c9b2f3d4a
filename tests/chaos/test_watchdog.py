"""Tests for the typed hang-surfacing paths: the livelock watchdog
(repro.chaos.watchdog), the bounded lock spins (``LockTimeout``), and
the bounded traversal restarts (``RestartStorm``)."""

from __future__ import annotations

import pytest

from repro.chaos.faults import ChaosConfig, FaultInjector
from repro.chaos.watchdog import (LivelockDetected, StuckOpDiagnostics,
                                  Watchdog)
from repro.core import GFSL
from repro.core import constants as C
from repro.core.locks import LockTimeout
from repro.core.traversal import RestartStorm, _count_restart
from repro.metrics import MetricsCollector


class TestWatchdog:
    def test_task_budget_trips_strictly_above(self):
        w = Watchdog(task_step_budget=10, total_step_budget=10**9)
        w.observe(0, 10, 10)               # at budget: still fine
        with pytest.raises(LivelockDetected) as ei:
            w.observe(3, 11, 50)
        d = ei.value.diagnostics
        assert (d.task_id, d.task_steps, d.total_steps) == (3, 11, 50)

    def test_total_budget_trips(self):
        w = Watchdog(task_step_budget=10**9, total_step_budget=100)
        w.observe(0, 5, 100)
        with pytest.raises(LivelockDetected):
            w.observe(0, 6, 101)

    def test_finished_counts(self):
        w = Watchdog()
        w.finished(0)
        w.finished(1)
        assert w.finished_tasks == 2

    def test_diagnostics_carry_accounting(self):
        stats = MetricsCollector(lock_spins=7, contains_restarts=3,
                                 update_restarts=2, max_zombie_chain=4)
        inj = FaultInjector(ChaosConfig.adversarial(), seed=1)
        inj.current_task = 1
        inj.note_lock(4)
        inj.counts["stall_split"] = 9
        w = Watchdog(stats=stats, injector=inj, labels={1: "insert(42)"})
        d = w.diagnose(1, 5, 9)
        assert d.label == "insert(42)"
        assert d.lock_retries == 7 and d.contains_restarts == 3
        assert d.update_restarts == 2 and d.max_zombie_chain == 4
        assert d.lock_owners == {4: 1}
        assert d.fault_counts["stall_split"] == 9
        text = str(d)
        assert "insert(42)" in text
        assert "locks held" in text
        assert "stall_split" in text

    def test_diagnostics_str_minimal(self):
        text = str(StuckOpDiagnostics(task_id=2, task_steps=5,
                                      total_steps=8))
        assert "task 2" in text and "5 of 8" in text


class TestLockTimeout:
    def test_externally_held_lock_times_out_with_owner(self):
        """A lock word nobody will ever release must surface as a typed
        LockTimeout naming the chunk and (via the injector's ownership
        table) the holding task — not as an endless spin."""
        sl = GFSL(capacity_chunks=64, team_size=8)
        inj = FaultInjector(seed=0)
        inj.current_task = 7
        inj.note_lock(0)                  # pretend task 7 holds chunk 0
        sl.chaos = inj
        sl.lock_retry_limit = 64
        # Chunk 0 is the bottom level's initial chunk — the enclosing
        # chunk of any key in a fresh structure.  Jam its lock word.
        sl.ctx.mem.write_word(
            sl.layout.entry_addr(0, sl.geo.lock_idx), C.LOCKED)
        with pytest.raises(LockTimeout) as ei:
            sl.insert(5)
        e = ei.value
        assert e.chunk == 0
        assert e.attempts == 64
        assert e.owner == 7
        assert "chunk 0" in str(e) and "task 7" in str(e)

    def test_without_injector_owner_is_none(self):
        sl = GFSL(capacity_chunks=64, team_size=8)
        sl.lock_retry_limit = 16
        sl.ctx.mem.write_word(
            sl.layout.entry_addr(0, sl.geo.lock_idx), C.LOCKED)
        with pytest.raises(LockTimeout) as ei:
            sl.insert(5)
        assert ei.value.owner is None


class TestRestartStorm:
    def test_bounded_restarts_raise_with_site(self):
        class _SL:
            restart_limit = 5
        sl = _SL()
        sl.metrics = MetricsCollector()
        restarts = 0
        with pytest.raises(RestartStorm) as ei:
            for _ in range(10):
                restarts = _count_restart(sl, 42, restarts, "search_down")
        e = ei.value
        assert e.key == 42
        assert e.restarts == 5
        assert e.where == "search_down"
        assert "retry storm" in str(e)
        # Each restart counted once, by flavour.
        assert (sl.metrics.contains_restarts, sl.metrics.restarts) == (5, 5)
