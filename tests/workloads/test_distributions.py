"""Key-popularity distributions for workload generation.

``--distribution zipf|hotspot`` skews the op key stream while leaving
the prefill and the op mixture untouched — and must not perturb the
draw order of anything the uniform path already generates (seeded
back-compat)."""

import numpy as np
import pytest

from repro.workloads import DISTRIBUTIONS, MIX_10_10_80, generate
from repro.workloads.generator import (HOT_FRACTION, HOT_WEIGHT,
                                       hotspot_keys)


class TestHotspot:
    def test_hot_set_concentration(self):
        wl = generate(MIX_10_10_80, key_range=10_000, n_ops=20_000,
                      seed=3, distribution="hotspot")
        keys, counts = np.unique(wl.keys, return_counts=True)
        order = np.argsort(counts)[::-1]
        n_hot = int(round(10_000 * HOT_FRACTION))
        hot_mass = counts[order][:n_hot].sum() / counts.sum()
        # 90% of ops to 10% of keys (plus the uniform 10% leaking in).
        assert hot_mass > HOT_WEIGHT - 0.05
        assert (keys >= 1).all() and (keys <= 10_000).all()

    def test_hot_set_is_a_seeded_permutation(self):
        """Different seeds pick different hot keys (the hot set is not
        always the smallest keys)."""
        rng = np.random.default_rng(0)
        a = hotspot_keys(np.random.default_rng(1), 1000, 5000)
        b = hotspot_keys(np.random.default_rng(2), 1000, 5000)
        top = lambda d: set(np.unique(d, return_counts=True)[0][  # noqa: E731
            np.argsort(np.unique(d, return_counts=True)[1])[::-1][:20]])
        assert top(a) != top(b)
        assert (hotspot_keys(rng, 100, 10) >= 1).all()

    def test_deterministic_per_seed(self):
        a = generate(MIX_10_10_80, key_range=500, n_ops=2000, seed=9,
                     distribution="hotspot")
        b = generate(MIX_10_10_80, key_range=500, n_ops=2000, seed=9,
                     distribution="hotspot")
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.ops, b.ops)
        assert np.array_equal(a.prefill, b.prefill)


class TestZipf:
    def test_zipf_skews_toward_small_ranks(self):
        wl = generate(MIX_10_10_80, key_range=10_000, n_ops=20_000,
                      seed=3, distribution="zipf", zipf_s=1.2)
        _, counts = np.unique(wl.keys, return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[:100].sum() > 0.3 * counts.sum()


class TestBackCompat:
    def test_distribution_choice_leaves_prefill_and_ops_alone(self):
        """Prefill and op mixture are drawn before the key stream, so
        every distribution shares them at a given seed."""
        base = generate(MIX_10_10_80, key_range=1000, n_ops=4000, seed=5)
        for dist in DISTRIBUTIONS[1:]:
            wl = generate(MIX_10_10_80, key_range=1000, n_ops=4000,
                          seed=5, distribution=dist)
            assert np.array_equal(wl.prefill, base.prefill), dist
            assert np.array_equal(wl.ops, base.ops), dist
            assert not np.array_equal(wl.keys, base.keys), dist

    def test_uniform_is_the_default(self):
        a = generate(MIX_10_10_80, key_range=1000, n_ops=1000, seed=5)
        b = generate(MIX_10_10_80, key_range=1000, n_ops=1000, seed=5,
                     distribution="uniform")
        assert np.array_equal(a.keys, b.keys)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            generate(MIX_10_10_80, key_range=100, n_ops=10, seed=0,
                     distribution="pareto")
        assert DISTRIBUTIONS == ("uniform", "zipf", "hotspot", "front")


class TestOneKeySampler:
    """``draw_keys`` is the one distribution dispatch behind workloads
    and serve load plans; the rng calls are the ones each used to make."""

    @staticmethod
    def _loadgen_draw(rng, distribution, key_range, n, zipf_s):
        # The serve load generator's own dispatch before it moved.
        from repro.workloads.generator import front_keys, zipf_keys
        if distribution == "zipf":
            return zipf_keys(rng, key_range, n, s=zipf_s)
        if distribution == "hotspot":
            return hotspot_keys(rng, key_range, n)
        if distribution == "front":
            return front_keys(rng, key_range, n, s=zipf_s)
        return rng.integers(1, key_range + 1, size=n).astype(np.int64)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_same_keys_and_rng_state_as_before(self, distribution):
        from repro.workloads import draw_keys
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        got = draw_keys(a, distribution, 500, 300, 1.3)
        want = self._loadgen_draw(b, distribution, 500, 300, 1.3)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_unknown_distribution_refused_everywhere(self):
        from repro.serve.loadgen import LoadConfig, build_plan
        from repro.workloads import draw_keys
        with pytest.raises(ValueError, match="unknown distribution"):
            draw_keys(np.random.default_rng(0), "pareto", 100, 5)
        with pytest.raises(ValueError, match="unknown distribution"):
            generate(MIX_10_10_80, 100, 5, distribution="pareto")
        with pytest.raises(ValueError, match="unknown distribution"):
            build_plan(LoadConfig(n_requests=5, distribution="pareto"))

    def test_delete_only_permutation_is_uniform_only(self):
        from repro.workloads import DELETE_ONLY
        skewed = generate(DELETE_ONLY, key_range=50, n_ops=50, seed=2,
                          distribution="zipf")
        assert len(set(skewed.keys.tolist())) < 50
