"""Differential testing: GFSL, M&C, and the Pugh oracle must agree on
every response of every operation program."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baseline import MCSkiplist
from repro.core import GFSL, validate_structure
from tests.integration.pugh import PughSkiplist

KEY = st.integers(min_value=1, max_value=250)
PROGRAM = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "contains", "get"]),
              KEY, st.integers(0, 1000)),
    min_size=1, max_size=150)


def trio(seed=0):
    return (GFSL(capacity_chunks=512, team_size=16, seed=seed),
            MCSkiplist(capacity_words=300_000, seed=seed),
            PughSkiplist(seed=seed))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=PROGRAM)
def test_three_way_agreement(program):
    sl, mc, oracle = trio()
    for op, k, v in program:
        if op == "insert":
            expect = oracle.insert(k, v)
            assert sl.insert(k, v) == expect
            assert mc.insert(k, v) == expect
        elif op == "delete":
            expect = oracle.delete(k)
            assert sl.delete(k) == expect
            assert mc.delete(k) == expect
        elif op == "contains":
            expect = oracle.contains(k)
            assert sl.contains(k) == expect
            assert mc.contains(k) == expect
        else:
            expect = oracle.get(k)
            assert sl.get(k) == expect
    assert sl.keys() == oracle.keys()
    assert mc.keys() == oracle.keys()
    assert sl.items() == oracle.items()
    validate_structure(sl)


def test_long_differential_soak():
    sl, mc, oracle = trio(seed=5)
    rng = random.Random(11)
    for step in range(4000):
        k = rng.randint(1, 800)
        r = rng.random()
        if r < 0.40:
            expect = oracle.insert(k, k)
            assert sl.insert(k, k) == expect
            assert mc.insert(k, k) == expect
        elif r < 0.75:
            expect = oracle.delete(k)
            assert sl.delete(k) == expect
            assert mc.delete(k) == expect
        else:
            expect = oracle.contains(k)
            assert sl.contains(k) == expect
            assert mc.contains(k) == expect
        if step % 1000 == 999:
            assert sl.keys() == oracle.keys() == mc.keys()
            validate_structure(sl)


def test_range_queries_agree():
    sl, _mc, oracle = trio(seed=7)
    rng = random.Random(3)
    for k in rng.sample(range(1, 5000), 400):
        sl.insert(k, k % 13)
        oracle.insert(k, k % 13)
    for _ in range(50):
        lo = rng.randint(1, 5000)
        hi = lo + rng.randint(0, 800)
        assert sl.range_query(lo, hi) == oracle.range_query(lo, hi)


class TestPughOracleItself:
    def test_basics(self):
        p = PughSkiplist(seed=1)
        assert p.insert(5, 50)
        assert not p.insert(5)
        assert p.contains(5) and p.get(5) == 50
        assert p.update(5, 60) and p.get(5) == 60
        assert not p.update(6, 0)
        assert p.delete(5)
        assert not p.delete(5)
        assert len(p) == 0 and p.min_key() is None

    def test_sorted_items(self):
        p = PughSkiplist(seed=2)
        for k in (30, 10, 20):
            p.insert(k)
        assert p.keys() == [10, 20, 30]
        assert p.min_key() == 10
        assert 10 in p and 11 not in p

    def test_key_validation(self):
        p = PughSkiplist()
        with pytest.raises(ValueError):
            p.contains(0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PughSkiplist(max_level=0)
        with pytest.raises(ValueError):
            PughSkiplist(p=1.0)

    def test_logarithmic_cost_shape(self):
        """Traversal visits grow ~logarithmically with size — the cost
        shape GFSL flattens further by chunking."""
        p = PughSkiplist(seed=3)
        sizes = (200, 3200)
        per_size = []
        rng = random.Random(4)
        keys = rng.sample(range(1, 10**6), sizes[-1])
        inserted = 0
        for target in sizes:
            while inserted < target:
                p.insert(keys[inserted])
                inserted += 1
            p.visits = 0
            probes = rng.sample(range(1, 10**6), 300)
            for k in probes:
                p.contains(k)
            per_size.append(p.visits / 300)
        # 16x more keys should cost ~log2(16)=4 extra levels' visits,
        # nowhere near 16x.
        assert per_size[1] < per_size[0] * 3
