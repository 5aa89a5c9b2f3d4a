"""Behavioural tests for the three GFSL operations (sequential mode)."""

import random

import pytest

from repro.core import GFSL, validate_structure
from repro.core import constants as C


@pytest.fixture
def sl():
    return GFSL(capacity_chunks=512, team_size=16, seed=1)


class TestContains:
    def test_empty_structure(self, sl):
        assert not sl.contains(5)
        assert not sl.contains(C.MAX_USER_KEY)

    def test_present_and_absent(self, sl):
        sl.insert(10)
        assert sl.contains(10)
        assert not sl.contains(9)
        assert not sl.contains(11)

    def test_boundary_keys(self, sl):
        sl.insert(C.MIN_USER_KEY)
        sl.insert(C.MAX_USER_KEY)
        assert sl.contains(C.MIN_USER_KEY)
        assert sl.contains(C.MAX_USER_KEY)

    def test_after_delete(self, sl):
        sl.insert(10)
        sl.delete(10)
        assert not sl.contains(10)


class TestInsert:
    def test_returns_true_then_false(self, sl):
        assert sl.insert(42)
        assert not sl.insert(42)

    def test_value_stored(self, sl):
        sl.insert(42, 4242)
        assert sl.get(42) == 4242

    def test_get_absent(self, sl):
        assert sl.get(42) is None

    def test_ascending_inserts_force_splits(self, sl):
        n = 200
        for k in range(1, n + 1):
            assert sl.insert(k, k)
        assert sl.keys() == list(range(1, n + 1))
        assert sl.metrics.splits > 0
        stats = validate_structure(sl)
        assert stats["height"] >= 1

    def test_descending_inserts(self, sl):
        for k in range(200, 0, -1):
            assert sl.insert(k)
        assert sl.keys() == list(range(1, 201))
        validate_structure(sl)

    def test_random_inserts_sorted(self, sl):
        random.seed(3)
        keys = random.sample(range(1, 10**6), 300)
        for k in keys:
            sl.insert(k)
        assert sl.keys() == sorted(keys)
        validate_structure(sl)

    def test_reinsert_after_delete(self, sl):
        sl.insert(5, 1)
        sl.delete(5)
        assert sl.insert(5, 2)
        assert sl.get(5) == 2

    def test_insert_smaller_than_everything(self, sl):
        for k in (100, 200, 300):
            sl.insert(k)
        assert sl.insert(1)
        assert sl.keys()[0] == 1


class TestDelete:
    def test_delete_absent(self, sl):
        assert not sl.delete(7)

    def test_delete_twice(self, sl):
        sl.insert(7)
        assert sl.delete(7)
        assert not sl.delete(7)

    def test_delete_all_then_empty(self, sl):
        keys = list(range(1, 120))
        for k in keys:
            sl.insert(k)
        random.seed(5)
        random.shuffle(keys)
        for k in keys:
            assert sl.delete(k)
        assert sl.keys() == []
        validate_structure(sl)

    def test_merges_happen(self, sl):
        for k in range(1, 150):
            sl.insert(k)
        for k in range(1, 150, 2):
            sl.delete(k)
        assert sl.metrics.merges > 0
        assert sl.keys() == list(range(2, 150, 2))
        validate_structure(sl)

    def test_delete_maximum_of_chunk_updates_max(self, sl):
        """Deleting a chunk's max key must keep traversals correct for
        the next-lower key."""
        for k in range(1, 100):
            sl.insert(k)
        # delete keys from the high end one by one; remaining keys stay
        # findable at every step
        for k in range(99, 50, -1):
            assert sl.delete(k)
            assert sl.contains(k - 1)
        validate_structure(sl)

    def test_interleaved_insert_delete_churn(self, sl):
        random.seed(9)
        model = set()
        for _ in range(800):
            k = random.randint(1, 500)
            if random.random() < 0.5:
                assert sl.insert(k) == (k not in model)
                model.add(k)
            else:
                assert sl.delete(k) == (k in model)
                model.discard(k)
        assert sl.keys() == sorted(model)
        validate_structure(sl)


class TestSizes:
    @pytest.mark.parametrize("team_size", [8, 16, 24, 32])
    def test_all_team_sizes(self, team_size):
        sl = GFSL(capacity_chunks=256, team_size=team_size, seed=2)
        keys = random.Random(team_size).sample(range(1, 10**5), 150)
        for k in keys:
            assert sl.insert(k)
        assert sl.keys() == sorted(keys)
        for k in keys[:40]:
            assert sl.delete(k)
        assert sl.keys() == sorted(set(keys) - set(keys[:40]))
        validate_structure(sl)

    def test_invalid_team_size(self):
        with pytest.raises(ValueError):
            GFSL(capacity_chunks=64, team_size=4)
        with pytest.raises(ValueError):
            GFSL(capacity_chunks=64, team_size=64)

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            GFSL(capacity_chunks=4, team_size=16)

    def test_invalid_p_chunk(self):
        with pytest.raises(ValueError):
            GFSL(capacity_chunks=64, p_chunk=1.5)


class TestDunder:
    def test_len_and_contains(self, sl):
        sl.insert(1)
        sl.insert(2)
        assert len(sl) == 2
        assert 1 in sl
        assert 3 not in sl

    def test_items_returns_pairs(self, sl):
        sl.insert(3, 30)
        sl.insert(1, 10)
        assert sl.items() == [(1, 10), (3, 30)]
