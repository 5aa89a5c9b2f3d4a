"""Event vocabulary sanity: immutability and field contracts that the
executors rely on."""

import pytest

from repro.gpu import events as ev


class TestImmutability:
    @pytest.mark.parametrize("event", [
        ev.ChunkRead(0, 16),
        ev.ChunkWrite(0, (1, 2)),
        ev.WordRead(5),
        ev.WordWrite(5, 9),
        ev.WordCAS(5, 1, 2),
        ev.AtomicAdd(5, 1),
        ev.AtomicExch(5, 7),
        ev.Compute(3, divergent=True),
        ev.SpillAccess(2),
        ev.GatherRead((1, 2, 3)),
    ])
    def test_frozen(self, event):
        field = next(iter(event.__dataclass_fields__))
        with pytest.raises(Exception):
            setattr(event, field, 0)

    def test_all_are_events(self):
        for name in ("ChunkRead", "ChunkWrite", "WordRead", "WordWrite",
                     "WordCAS", "AtomicAdd", "AtomicExch", "Compute",
                     "SpillAccess", "GatherRead"):
            assert issubclass(getattr(ev, name), ev.Event)


class TestDefaults:
    def test_compute_defaults(self):
        c = ev.Compute()
        assert c.amount == 1 and c.divergent is False

    def test_spill_default(self):
        assert ev.SpillAccess().count == 1

    def test_gather_default_empty(self):
        assert ev.GatherRead().addrs == ()

    def test_events_hashable(self):
        # Frozen dataclasses must be usable as dict keys (the warp
        # executor groups by event identity in places).
        assert len({ev.WordRead(1), ev.WordRead(1), ev.WordRead(2)}) == 2


class TestLivenessHazard:
    def test_abandoned_lock_holder_blocks_updates_not_reads(self):
        """A team that dies holding a chunk lock (a real GPU hazard the
        paper's design shares with every lock-based structure) blocks
        other *updates* on that chunk forever — detected by the
        scheduler's livelock budget — while lock-free Contains keeps
        completing."""
        from repro.core import GFSL, bulk_build_into
        from repro.gpu.scheduler import DeviceFault, InterleavingScheduler
        from repro.gpu.scheduler import execute_event

        sl = GFSL(capacity_chunks=256, team_size=16, seed=3)
        bulk_build_into(sl, range(10, 100, 10))

        # Drive an insert until it holds the bottom lock, then abandon it.
        gen = sl.insert_gen(15)
        event = next(gen)
        from repro.core import constants as C
        from repro.gpu import events as _ev
        for _ in range(500):
            result = execute_event(event, sl.ctx.mem, None)
            if isinstance(event, _ev.WordCAS) and result == C.UNLOCKED:
                break
            event = gen.send(result)
        del gen  # the team dies holding the lock

        assert sl.contains(20)          # lock-free reads unaffected
        sched = InterleavingScheduler(sl.ctx.mem, None, max_steps=20_000)
        sched.spawn(sl.insert_gen(16))  # same chunk → spins forever
        with pytest.raises(DeviceFault):
            sched.run()
