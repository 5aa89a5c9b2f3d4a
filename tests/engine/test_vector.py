"""Tests for the vectorized multi-key traversal kernels that back the
vectorized engine backend (``repro.core.vector``)."""

import numpy as np
import pytest

from repro.core import vector
from repro.engine import make_structure
from repro.gpu.scheduler import run_to_completion
from repro.workloads import MIX_10_10_80, generate


@pytest.fixture(scope="module")
def built():
    w = generate(MIX_10_10_80, key_range=5_000, n_ops=10, seed=4)
    sl = make_structure("gfsl", w, seed=0)
    return sl, set(int(k) for k in w.prefill)


class TestVectorContains:
    def test_matches_scalar_contains(self, built):
        sl, present = built
        rng = np.random.default_rng(0)
        keys = rng.integers(1, 5_001, size=512, dtype=np.int64)
        found = vector.vector_contains(sl, keys, tracer=None)
        expected = np.array([k in present for k in keys.tolist()])
        assert np.array_equal(found, expected)

    def test_counts_contains_calls(self, built):
        sl, _present = built
        sl.metrics.reset()
        keys = np.arange(1, 101, dtype=np.int64)
        vector.vector_contains(sl, keys, tracer=None)
        assert sl.metrics.contains_calls == 100

    def test_diagnostics_updated(self, built):
        sl, _present = built
        vector.vector_contains(sl, np.arange(1, 65, dtype=np.int64),
                               tracer=None)
        diag = vector.last_call_diag
        assert diag["ops"] == 64
        # A quiescent structure never forces the restart fallback.
        assert diag["fallback_restart"] == 0
        assert diag["fallback_stuck"] == 0


class TestVectorSearch:
    def test_hints_match_scalar_search(self, built):
        """``vector_search`` must agree with the scalar ``search_slow``
        on the found flag, and its paths must be usable hints: every
        recorded chunk is a valid starting point for the per-level
        lateral re-walk (checked by running a hinted delete/insert)."""
        from repro.core.traversal import search_slow
        sl, present = built
        rng = np.random.default_rng(1)
        keys = rng.integers(1, 5_001, size=256, dtype=np.int64)
        found, paths = vector.vector_search(sl, keys, tracer=None)
        assert paths.shape == (256, sl.layout.max_level)
        for i, k in enumerate(keys.tolist()):
            sfound, _spath = run_to_completion(search_slow(sl, k),
                                               sl.ctx.mem, None)
            assert bool(found[i]) == sfound == (k in present)

    def test_hinted_update_round_trip(self, built):
        sl, present = built
        absent = next(k for k in range(1, 5_001) if k not in present)
        keys = np.array([absent], dtype=np.int64)
        found, paths = vector.vector_search(sl, keys, tracer=None)
        assert not bool(found[0])
        hint = (bool(found[0]), paths[0].tolist())
        assert sl.ctx.run(sl.insert_gen(absent, 7, hint=hint)) is True
        found2, paths2 = vector.vector_search(sl, keys, tracer=None)
        hint2 = (bool(found2[0]), paths2[0].tolist())
        assert sl.ctx.run(sl.delete_gen(absent, hint=hint2)) is True
        assert not sl.contains(absent)
