"""Tests for workload generation (Section 5.1 semantics)."""

import numpy as np
import pytest

from repro.engine import OpBatch
from repro.workloads import (CONTAINS_ONLY, DELETE_ONLY, INSERT_ONLY,
                             MIX_10_10_80, PAPER_MIXTURES, Mixture, Op,
                             generate, prefill_for)


class TestMixture:
    def test_name(self):
        assert MIX_10_10_80.name == "[10,10,80]"

    def test_must_total_100(self):
        with pytest.raises(ValueError):
            Mixture(50, 50, 50)
        with pytest.raises(ValueError):
            Mixture(-10, 10, 100)

    def test_kinds(self):
        assert MIX_10_10_80.kind == "mixed"
        assert CONTAINS_ONLY.kind == "contains-only"
        assert INSERT_ONLY.kind == "insert-only"
        assert DELETE_ONLY.kind == "delete-only"

    def test_update_fraction(self):
        assert MIX_10_10_80.update_fraction == pytest.approx(0.2)
        assert CONTAINS_ONLY.update_fraction == 0.0

    def test_paper_mixtures(self):
        names = [m.name for m in PAPER_MIXTURES]
        assert names == ["[1,1,98]", "[5,5,90]", "[10,10,80]", "[20,20,60]"]


class TestPrefill:
    def test_mixed_half_range(self):
        rng = np.random.default_rng(0)
        pf = prefill_for(MIX_10_10_80, 1000, rng)
        assert len(pf) == 500
        assert len(set(pf.tolist())) == 500
        assert pf.min() >= 1 and pf.max() <= 1000

    def test_contains_only_full_range(self):
        rng = np.random.default_rng(0)
        pf = prefill_for(CONTAINS_ONLY, 100, rng)
        assert sorted(pf.tolist()) == list(range(1, 101))

    def test_delete_only_full_range(self):
        rng = np.random.default_rng(0)
        assert len(prefill_for(DELETE_ONLY, 50, rng)) == 50

    def test_insert_only_growth_midpoint(self):
        # Scaled sampling of the paper's empty-start test: half-full
        # prefill (see prefill_for docstring / DESIGN.md §2).
        rng = np.random.default_rng(0)
        assert len(prefill_for(INSERT_ONLY, 100, rng)) == 50


class TestGenerate:
    def test_shapes(self):
        w = generate(MIX_10_10_80, key_range=1000, n_ops=500, seed=1)
        assert w.n_ops == 500
        assert len(w.keys) == 500
        assert w.keys.min() >= 1 and w.keys.max() <= 1000

    def test_mixture_proportions(self):
        w = generate(MIX_10_10_80, key_range=10_000, n_ops=20_000, seed=2)
        frac_ins = np.count_nonzero(w.ops == Op.INSERT) / w.n_ops
        frac_del = np.count_nonzero(w.ops == Op.DELETE) / w.n_ops
        assert frac_ins == pytest.approx(0.10, abs=0.01)
        assert frac_del == pytest.approx(0.10, abs=0.01)

    def test_deterministic_by_seed(self):
        a = generate(MIX_10_10_80, 1000, 200, seed=5)
        b = generate(MIX_10_10_80, 1000, 200, seed=5)
        c = generate(MIX_10_10_80, 1000, 200, seed=6)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.ops, b.ops)
        assert not np.array_equal(a.keys, c.keys)

    def test_delete_only_keys_unique(self):
        """'for a range of 100K keys, 100K operations were performed' —
        each key deleted about once, so keys are drawn without
        replacement."""
        w = generate(DELETE_ONLY, key_range=500, n_ops=500, seed=3)
        assert len(set(w.keys.tolist())) == 500
        assert (w.ops == Op.DELETE).all()

    def test_insert_only_all_inserts(self):
        w = generate(INSERT_ONLY, key_range=100, n_ops=50, seed=4)
        assert (w.ops == Op.INSERT).all()
        assert len(w.prefill) == 50

    def test_range_too_small(self):
        with pytest.raises(ValueError):
            generate(MIX_10_10_80, key_range=2, n_ops=10)


class TestRNGDeterminism:
    """One seed fully determines the workload — every distribution path
    draws from the single ``default_rng(seed)`` instance."""

    @pytest.mark.parametrize("dist", ["uniform", "zipf"])
    def test_same_seed_identical_opbatch(self, dist):
        kw = dict(key_range=2_000, n_ops=400, seed=11, distribution=dist)
        wa = generate(MIX_10_10_80, **kw)
        wb = generate(MIX_10_10_80, **kw)
        assert np.array_equal(wa.prefill, wb.prefill)
        a, b = OpBatch.from_workload(wa), OpBatch.from_workload(wb)
        assert np.array_equal(a.ops, b.ops)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.values, b.values)

    def test_delete_only_path_seeded(self):
        a = generate(DELETE_ONLY, key_range=300, n_ops=300, seed=9)
        b = generate(DELETE_ONLY, key_range=300, n_ops=300, seed=9)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.values, b.values)

    def test_values_vary_with_seed(self):
        a = generate(MIX_10_10_80, 1000, 100, seed=1)
        b = generate(MIX_10_10_80, 1000, 100, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_batch_is_zero_copy(self):
        w = generate(MIX_10_10_80, 1000, 100, seed=1)
        batch = OpBatch.from_workload(w)
        assert np.shares_memory(batch.keys, w.keys)
        assert np.shares_memory(batch.ops, w.ops)
        assert np.shares_memory(batch.values, w.values)


class TestZipf:
    def test_skewed_distribution(self):
        from repro.workloads import zipf_keys
        rng = np.random.default_rng(0)
        keys = zipf_keys(rng, key_range=10_000, n=20_000, s=1.2)
        assert keys.min() >= 1 and keys.max() <= 10_000
        # Heavy skew: the most common key dominates far beyond uniform.
        _vals, counts = np.unique(keys, return_counts=True)
        assert counts.max() > 50 * counts.mean()

    def test_hot_keys_scattered(self):
        """The hot set must not cluster at the low end of the key space
        (rank→key mapping is permuted)."""
        from repro.workloads import zipf_keys
        rng = np.random.default_rng(1)
        keys = zipf_keys(rng, key_range=10_000, n=5_000, s=1.2)
        vals, counts = np.unique(keys, return_counts=True)
        hottest = vals[np.argmax(counts)]
        assert hottest > 100  # overwhelmingly likely after permutation

    def test_generate_zipf_workload(self):
        w = generate(MIX_10_10_80, key_range=5_000, n_ops=3_000, seed=2,
                     distribution="zipf", zipf_s=1.1)
        assert w.n_ops == 3_000
        _v, counts = np.unique(w.keys, return_counts=True)
        assert counts.max() > 20

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate(MIX_10_10_80, 1000, 10, distribution="pareto")
