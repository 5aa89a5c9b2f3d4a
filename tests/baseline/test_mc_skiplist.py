"""Tests for the M&C lock-free skiplist baseline."""

import random

import pytest

from repro.baseline import MCSkiplist, OutOfNodes, bulk_build_into
from repro.baseline import node as N


@pytest.fixture
def mc():
    return MCSkiplist(capacity_words=100_000, seed=1)


class TestNodeLayout:
    def test_pack_link(self):
        w = N.pack_link(5, marked=True)
        assert N.link_ptr(w) == 5
        assert N.link_marked(w)
        assert not N.link_marked(N.pack_link(5))

    def test_node_words(self):
        assert N.node_words(1) == 3
        assert N.node_words(32) == 34

    def test_pool_alloc_and_exhaustion(self):
        from repro.gpu.kernel import GPUContext
        pool = N.NodePool(0, 100)
        ctx = GPUContext(100)
        pool.format(ctx.mem)
        a = ctx.run(pool.alloc(1))
        b = ctx.run(pool.alloc(1))
        assert b == a + 3
        with pytest.raises(OutOfNodes):
            for _ in range(40):
                ctx.run(pool.alloc(4))


class TestBasicOps:
    def test_empty(self, mc):
        assert not mc.contains(5)
        assert not mc.delete(5)
        assert mc.keys() == []

    def test_insert_contains(self, mc):
        assert mc.insert(10, 100)
        assert mc.contains(10)
        assert not mc.contains(9)

    def test_duplicate_insert(self, mc):
        assert mc.insert(10)
        assert not mc.insert(10)

    def test_delete(self, mc):
        mc.insert(10)
        assert mc.delete(10)
        assert not mc.contains(10)
        assert not mc.delete(10)

    def test_sorted_items(self, mc):
        for k in (30, 10, 20):
            mc.insert(k, k * 2)
        assert mc.items() == [(10, 20), (20, 40), (30, 60)]

    def test_forced_heights(self, mc):
        """Pre-drawn heights per insert entry (the paper's M&C input
        format)."""
        mc.insert(10, height=1)
        mc.insert(20, height=8)
        mc.insert(30, height=32)
        for k in (10, 20, 30):
            assert mc.contains(k)
        assert mc.delete(20)
        assert mc.keys() == [10, 30]

    def test_max_level_bounds(self):
        with pytest.raises(ValueError):
            MCSkiplist(capacity_words=10_000, max_level=0)
        with pytest.raises(ValueError):
            MCSkiplist(capacity_words=10_000, p_key=1.0)

    def test_random_churn_matches_model(self, mc):
        random.seed(2)
        model = set()
        for _ in range(600):
            k = random.randint(1, 300)
            r = random.random()
            if r < 0.45:
                assert mc.insert(k) == (k not in model)
                model.add(k)
            elif r < 0.9:
                assert mc.delete(k) == (k in model)
                model.discard(k)
            else:
                assert mc.contains(k) == (k in model)
        assert mc.keys() == sorted(model)

    def test_draw_height_geometric(self):
        mc = MCSkiplist(capacity_words=10_000, p_key=0.5, seed=3)
        hs = [mc.draw_height() for _ in range(4000)]
        assert min(hs) == 1
        frac2 = sum(1 for h in hs if h >= 2) / len(hs)
        assert 0.45 < frac2 < 0.55  # p_key = 0.5


class TestBulk:
    def test_bulk_roundtrip(self):
        mc = MCSkiplist(capacity_words=200_000, seed=4)
        keys = random.Random(5).sample(range(1, 10**6), 800)
        counts = bulk_build_into(mc, keys, [k % 7 for k in keys])
        assert mc.keys() == sorted(keys)
        assert counts[0] == len(keys)
        assert counts.get(1, 0) < len(keys)  # geometric decay
        # Structure stays fully operational.
        assert mc.delete(sorted(keys)[0])
        assert mc.insert(10**6 + 5)

    def test_bulk_empty(self):
        mc = MCSkiplist(capacity_words=10_000)
        assert bulk_build_into(mc, []) == {}
        assert mc.insert(5)

    def test_bulk_rejects_duplicates(self):
        mc = MCSkiplist(capacity_words=10_000)
        with pytest.raises(ValueError):
            bulk_build_into(mc, [5, 5], [0, 1])

    def test_bulk_unshuffled_layout(self):
        mc = MCSkiplist(capacity_words=50_000, seed=6)
        bulk_build_into(mc, range(1, 200),
                        shuffle_layout=False)
        assert mc.keys() == list(range(1, 200))


class TestConcurrent:
    def test_disjoint_concurrent_ops(self):
        mc = MCSkiplist(capacity_words=400_000, seed=7)
        keys = list(range(10, 2010, 10))
        bulk_build_into(mc, keys[::2])
        gens = ([mc.insert_gen(k) for k in keys[1::2]]
                + [mc.delete_gen(k) for k in keys[::4]])
        results = mc.ctx.run_concurrent(gens, seed=9)
        assert all(r.value for r in results)
        expected = (set(keys[::2]) | set(keys[1::2])) - set(keys[::4])
        assert set(mc.keys()) == expected

    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_duplicate_insert_race(self, seed):
        mc = MCSkiplist(capacity_words=100_000, seed=8)
        gens = [mc.insert_gen(42) for _ in range(6)]
        results = mc.ctx.run_concurrent(gens, seed=seed)
        assert sum(r.value for r in results) == 1
        assert mc.keys() == [42]

    @pytest.mark.parametrize("seed", [2, 6, 12])
    def test_duplicate_delete_race(self, seed):
        mc = MCSkiplist(capacity_words=100_000, seed=8)
        mc.insert(42)
        gens = [mc.delete_gen(42) for _ in range(6)]
        results = mc.ctx.run_concurrent(gens, seed=seed)
        assert sum(r.value for r in results) == 1
        assert mc.keys() == []

    def test_contains_lock_free_during_stalled_insert(self):
        """A suspended insert (between CASes) never blocks contains."""
        from repro.gpu.scheduler import execute_event
        mc = MCSkiplist(capacity_words=100_000, seed=9)
        for k in (10, 30):
            mc.insert(k)
        gen = mc.insert_gen(20)
        event = next(gen)
        for _ in range(40):  # stall mid-insert
            result = execute_event(event, mc.ctx.mem, None)
            event = gen.send(result)
        assert mc.contains(10)
        assert mc.contains(30)
        # finish the insert
        try:
            while True:
                result = execute_event(event, mc.ctx.mem, None)
                event = gen.send(result)
        except StopIteration:
            pass
        assert mc.contains(20)

    def test_soak_against_model(self):
        random.seed(13)
        mc = MCSkiplist(capacity_words=800_000, seed=10)
        prefill = random.sample(range(1, 30000), 900)
        bulk_build_into(mc, prefill)
        ops = [(random.choice(["insert", "delete"]),
                random.randint(1, 30000)) for _ in range(400)]
        gens = [getattr(mc, f"{op}_gen")(k) for op, k in ops]
        results = mc.ctx.run_concurrent(gens, seed=15)
        final = set(mc.keys())
        pre = set(prefill)
        per_key: dict[int, list] = {}
        for (op, k), r in zip(ops, results):
            per_key.setdefault(k, []).append((op, r.value))
        for k, events in per_key.items():
            ins_ok = sum(1 for op, v in events if op == "insert" and v)
            del_ok = sum(1 for op, v in events if op == "delete" and v)
            assert int(k in pre) + ins_ok - del_ok == int(k in final), k
