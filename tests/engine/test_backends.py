"""Backend scheduling details: per-wave seeds and wave accounting."""

import numpy as np
import pytest

import repro.engine.backends as backends_mod
from repro.chaos import ChaosHooks
from repro.engine import OpBatch, make_backend, make_structure
from repro.engine.backends import InterleavedBackend
from repro.workloads import MIX_10_10_80, generate


def _workload(n_ops=40, key_range=500, seed=9):
    w = generate(MIX_10_10_80, key_range=key_range, n_ops=n_ops, seed=seed)
    # Unique op keys: backends must then agree on outcomes regardless of
    # interleaving, so seed changes stay invisible to results.
    rng = np.random.default_rng(seed)
    w.keys[:] = rng.permutation(
        np.arange(1, key_range + 1, dtype=np.int64))[:n_ops]
    return w


class _SeedRecorder:
    """Stand-in scheduler factory that records the seed of every wave."""

    def __init__(self, real_cls):
        self.real_cls = real_cls
        self.seeds = []

    def __call__(self, *args, **kwargs):
        self.seeds.append(kwargs.get("seed"))
        return self.real_cls(*args, **kwargs)


#: The one interleaved wave loop, without and with chaos hooks.
HOOKS = pytest.mark.parametrize("hooks", [
    pytest.param(lambda: None, id="interleaved"),
    pytest.param(ChaosHooks, id="interleaved-chaos"),
])


@HOOKS
def test_each_wave_gets_a_distinct_derived_seed(monkeypatch, hooks):
    """Seeded shuffling must not replay the same RNG stream every wave:
    wave i runs with seed + i, with or without chaos hooks — the
    zero-fault differential depends on it."""
    rec = _SeedRecorder(backends_mod.InterleavingScheduler)
    monkeypatch.setattr(backends_mod, "InterleavingScheduler", rec)
    w = _workload(n_ops=40)
    st = make_structure("gfsl", w, team_size=8, seed=0)
    InterleavedBackend(concurrency=8, seed=123, chaos=hooks()).execute(
        st, OpBatch.from_workload(w))
    assert rec.seeds == [123 + i for i in range(5)]


@HOOKS
def test_unseeded_waves_stay_deterministic_round_robin(monkeypatch, hooks):
    rec = _SeedRecorder(backends_mod.InterleavingScheduler)
    monkeypatch.setattr(backends_mod, "InterleavingScheduler", rec)
    w = _workload(n_ops=20)
    st = make_structure("gfsl", w, team_size=8, seed=0)
    InterleavedBackend(concurrency=8, chaos=hooks()).execute(
        st, OpBatch.from_workload(w))
    assert rec.seeds == [None, None, None]


def test_seeded_backends_still_agree_on_outcomes():
    """With unique keys, different wave seeds only reorder interleaving
    — per-op results and the final key set cannot change."""
    w = _workload(n_ops=60)
    outcomes = []
    for seed in (None, 1, 99):
        st = make_structure("gfsl", w, team_size=8, seed=0)
        res = InterleavedBackend(concurrency=16, seed=seed).execute(
            st, OpBatch.from_workload(w))
        outcomes.append((res.results, sorted(st.keys())))
    assert outcomes[0] == outcomes[1] == outcomes[2]


class TestWaveCounts:
    def test_interleaved_wave_count(self):
        w = _workload(n_ops=40)
        st = make_structure("gfsl", w, team_size=8, seed=0)
        res = InterleavedBackend(concurrency=16).execute(
            st, OpBatch.from_workload(w))
        assert res.waves == 3            # ceil(40 / 16)

    def test_vectorized_counts_only_nonempty_waves(self):
        """BatchResult.waves is the number of waves that actually ran
        ops — with unit waves and all-duplicate keys, exactly n_ops."""
        n = 5
        batch = OpBatch(ops=np.full(n, 1, dtype=np.int64),
                        keys=np.full(n, 42, dtype=np.int64),
                        values=np.arange(n, dtype=np.int64))
        w = _workload(n_ops=8)
        st = make_structure("gfsl", w, team_size=8, seed=0)
        res = make_backend("vectorized", wave_size=1).execute(st, batch)
        assert res.waves == n
        assert len(res.results) == n

    def test_sequential_waves_equal_ops(self):
        w = _workload(n_ops=7)
        st = make_structure("gfsl", w, team_size=8, seed=0)
        res = make_backend("sequential").execute(
            st, OpBatch.from_workload(w))
        assert res.waves == 7
