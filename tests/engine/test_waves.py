"""Property tests for the vectorized backend's wave planner."""

import numpy as np
import pytest

from repro.engine import plan_waves, run_wave_generators
from repro.gpu import DeviceConfig
from repro.gpu import events as ev
from repro.gpu.memory import GlobalMemory
from repro.gpu.scheduler import run_to_completion
from repro.gpu.tracer import TransactionTracer


def _flatten(waves):
    return [i for w in waves for i in w]


class TestPlanWaves:
    def test_no_repeated_key_within_a_wave(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 50, size=400)
        for wave in plan_waves(keys, wave_size=64):
            wave_keys = keys[wave]
            assert len(set(wave_keys.tolist())) == len(wave_keys)

    def test_every_index_scheduled_exactly_once(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 30, size=300)
        waves = plan_waves(keys, wave_size=32)
        assert sorted(_flatten(waves)) == list(range(300))

    def test_per_key_fifo_order(self):
        """Ops on the same key must execute in submission order even
        across deferrals — the property that makes wave replay
        outcome-equivalent to sequential replay."""
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 10, size=200)      # heavy duplication
        waves = plan_waves(keys, wave_size=16)
        order = _flatten(waves)
        position = {idx: pos for pos, idx in enumerate(order)}
        for k in range(10):
            idxs = np.flatnonzero(keys == k)
            positions = [position[int(i)] for i in idxs]
            assert positions == sorted(positions)

    def test_wave_size_respected(self):
        keys = np.arange(1000)
        waves = plan_waves(keys, wave_size=128)
        assert all(len(w) <= 128 for w in waves)
        assert len(waves) == 8   # all keys distinct: perfect packing

    def test_all_same_key_degenerates_to_sequential(self):
        waves = plan_waves(np.zeros(5, dtype=np.int64), wave_size=4)
        assert [len(w) for w in waves] == [1, 1, 1, 1, 1]
        assert _flatten(waves) == [0, 1, 2, 3, 4]

    def test_empty_and_invalid(self):
        assert plan_waves(np.array([], dtype=np.int64)) == []
        import pytest
        with pytest.raises(ValueError):
            plan_waves(np.array([1]), wave_size=0)

    def test_wave_size_one_all_duplicates(self):
        """The degenerate corner: every op on one key with unit waves.
        Still strictly sequential, FIFO, and no wave ever empty."""
        waves = plan_waves(np.full(6, 7, dtype=np.int64), wave_size=1)
        assert [len(w) for w in waves] == [1] * 6
        assert _flatten(waves) == list(range(6))

    def test_planner_never_emits_an_empty_wave(self):
        rng = np.random.default_rng(3)
        for wave_size in (1, 2, 7):
            keys = rng.integers(0, 5, size=60)
            assert all(plan_waves(keys, wave_size=wave_size))


class TestWaveReadBounds:
    """Batched reads refuse an out-of-range address exactly as the
    scalar trampoline does, before the tracer or memory is touched."""

    @staticmethod
    def _reader(event):
        return (yield event)

    @pytest.mark.parametrize("event", [ev.WordRead(-1), ev.WordRead(16),
                                       ev.ChunkRead(14, 4),
                                       ev.ChunkRead(-2, 4)])
    def test_out_of_bounds_read_matches_run_to_completion(self, event):
        mem = GlobalMemory(16)
        mem.write_word(15, 99)
        with pytest.raises(IndexError) as scalar:
            run_to_completion(self._reader(event), mem, None)
        tracer = TransactionTracer(DeviceConfig.gtx970())
        in_bounds = ev.ChunkRead(0, 4) if type(event) is ev.ChunkRead \
            else ev.WordRead(0)
        tasks = [(0, self._reader(in_bounds)), (1, self._reader(event))]
        with pytest.raises(IndexError) as batched:
            run_wave_generators(tasks, mem, tracer)
        assert str(batched.value) == str(scalar.value)
        assert "device memory access out of bounds" in str(batched.value)
        assert tracer.stats.transactions == 0

    def test_in_bounds_edges_still_read(self):
        mem = GlobalMemory(16)
        mem.write_word(15, 99)
        out = run_wave_generators(
            [(0, self._reader(ev.WordRead(15))),
             (1, self._reader(ev.ChunkRead(12, 4)))], mem, None)
        assert out[0] == 99 and out[1].tolist() == [0, 0, 0, 99]
