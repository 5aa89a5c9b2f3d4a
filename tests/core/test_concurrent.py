"""Concurrency stress tests: fine-grained interleavings of real ops.

The scheduler switches teams between *every* memory access, so these
runs explore the races the paper's protocol must survive: lock
hand-offs, split/merge vs. traversal, zombie redirects, duplicate-key
contention, and the lock-free Contains path.
"""

import random

import pytest

from repro.core import GFSL, bulk_build_into, validate_structure


def build(prefill, team_size=16, seed=1, cap=2048):
    sl = GFSL(capacity_chunks=cap, team_size=team_size, seed=seed)
    if prefill:
        bulk_build_into(sl, prefill, rng=sl.rng)
    return sl


class TestDisjointKeys:
    @pytest.mark.parametrize("sched_seed", [1, 17, 99])
    def test_concurrent_inserts_distinct_keys(self, sched_seed):
        sl = build([])
        keys = list(range(10, 3010, 10))
        gens = [sl.insert_gen(k) for k in keys]
        results = sl.ctx.run_concurrent(gens, seed=sched_seed)
        assert all(r.value for r in results)
        assert sl.keys() == sorted(keys)
        validate_structure(sl)

    @pytest.mark.parametrize("sched_seed", [2, 23])
    def test_concurrent_deletes_distinct_keys(self, sched_seed):
        keys = list(range(10, 2010, 10))
        sl = build(keys)
        gens = [sl.delete_gen(k) for k in keys[::2]]
        results = sl.ctx.run_concurrent(gens, seed=sched_seed)
        assert all(r.value for r in results)
        assert sl.keys() == sorted(keys[1::2])
        validate_structure(sl)

    def test_mixed_batch(self):
        random.seed(4)
        prefill = random.sample(range(1, 20000), 800)
        sl = build(prefill)
        others = [k for k in range(1, 20000) if k not in set(prefill)]
        ins = random.sample(others, 150)
        dels = random.sample(prefill, 150)
        cons = random.sample(range(1, 20000), 150)
        gens = ([sl.insert_gen(k) for k in ins]
                + [sl.delete_gen(k) for k in dels]
                + [sl.contains_gen(k) for k in cons])
        random.shuffle(gens)
        sl.ctx.run_concurrent(gens, seed=77)
        assert set(sl.keys()) == (set(prefill) | set(ins)) - set(dels)
        validate_structure(sl)


class TestContendedKeys:
    @pytest.mark.parametrize("sched_seed", [5, 55])
    def test_duplicate_inserts_single_winner(self, sched_seed):
        sl = build([])
        gens = [sl.insert_gen(500) for _ in range(8)]
        results = sl.ctx.run_concurrent(gens, seed=sched_seed)
        assert sum(r.value for r in results) == 1
        assert sl.keys() == [500]

    @pytest.mark.parametrize("sched_seed", [6, 66])
    def test_duplicate_deletes_single_winner(self, sched_seed):
        sl = build([500])
        gens = [sl.delete_gen(500) for _ in range(8)]
        results = sl.ctx.run_concurrent(gens, seed=sched_seed)
        assert sum(r.value for r in results) == 1
        assert sl.keys() == []

    @pytest.mark.parametrize("sched_seed", list(range(8)))
    def test_insert_delete_race_consistent(self, sched_seed):
        """Racing insert/delete on one key: any outcome is allowed as
        long as success counts and the final state agree."""
        sl = build([100, 200, 300])
        gens = [sl.insert_gen(200), sl.delete_gen(200), sl.insert_gen(200)]
        results = sl.ctx.run_concurrent(gens, seed=sched_seed)
        ins_ok = results[0].value + results[2].value
        del_ok = int(results[1].value)
        present = 200 in set(sl.keys())
        assert 1 + ins_ok - del_ok == int(present)
        validate_structure(sl)

    def test_hot_chunk_hammering(self):
        """Dozens of updates confined to one chunk's key range —
        maximal lock contention plus splits/merges."""
        sl = build(list(range(10, 30)))
        random.seed(8)
        gens = []
        expect_model = None
        for _ in range(120):
            k = random.randint(1, 60)
            if random.random() < 0.5:
                gens.append(sl.insert_gen(k))
            else:
                gens.append(sl.delete_gen(k))
        sl.ctx.run_concurrent(gens, seed=3)
        validate_structure(sl)

    def test_splits_and_merges_under_interleaving(self):
        sl = build(list(range(1, 200)), team_size=16)
        gens = ([sl.delete_gen(k) for k in range(1, 120)]
                + [sl.insert_gen(k) for k in range(300, 360)])
        random.Random(5).shuffle(gens)
        results = sl.ctx.run_concurrent(gens, seed=21)
        assert all(r.value for r in results)
        assert sl.metrics.merges + sl.metrics.splits > 0
        assert set(sl.keys()) == set(range(120, 200)) | set(range(300, 360))
        validate_structure(sl)


class TestReadersVsWriters:
    def test_contains_correct_during_updates(self):
        """Searches racing with updates on other keys must return the
        pre-decided truth for keys no updater touches."""
        stable = list(range(100_000, 100_500, 5))   # untouched keys
        churn = list(range(10, 500, 5))
        sl = build(stable + churn)
        gens = []
        expected = []
        for k in stable[:50]:
            gens.append(sl.contains_gen(k))
            expected.append(True)
        for k in range(100_501, 100_551):
            gens.append(sl.contains_gen(k))
            expected.append(False)
        touch = [sl.delete_gen(k) for k in churn[:40]] + \
                [sl.insert_gen(k) for k in range(600, 640)]
        all_gens = gens + touch
        random.Random(9).shuffle_order = None
        results = sl.ctx.run_concurrent(all_gens, seed=13)
        for r, exp in zip(results[:len(expected)], expected):
            assert r.value == exp
        validate_structure(sl)

    def test_big_interleaved_soak(self):
        """A larger randomized soak across many seeds-in-one: the final
        structure must validate and match the per-op reported outcomes."""
        random.seed(10)
        prefill = random.sample(range(1, 50000), 1500)
        sl = build(prefill, cap=4096)
        ops = []
        for _ in range(700):
            k = random.randint(1, 50000)
            ops.append((random.choice(["insert", "delete", "contains"]), k))
        gens = [getattr(sl, f"{op}_gen")(k) for op, k in ops]
        results = sl.ctx.run_concurrent(gens, seed=31)
        final = set(sl.keys())
        # Reconcile: per key, membership change equals net successes.
        per_key: dict[int, list] = {}
        for (op, k), r in zip(ops, results):
            per_key.setdefault(k, []).append((op, r.value))
        pre = set(prefill)
        for k, events in per_key.items():
            ins_ok = sum(1 for op, v in events if op == "insert" and v)
            del_ok = sum(1 for op, v in events if op == "delete" and v)
            assert int(k in pre) + ins_ok - del_ok == int(k in final), k
        validate_structure(sl)
