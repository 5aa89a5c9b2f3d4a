"""``L2Cache.warm`` against the per-line oracle in ``per_line_warm``:
after every warm call each set holds the same lines in the same LRU
order, and the hit/miss counters stay untouched.  Contiguous ranges take
the closed form; any other iterable takes the per-line loop.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.cache import L2Cache
from tests.gpu import per_line_warm as oracle


def _cache(num_sets: int, assoc: int, pre: list[int]) -> L2Cache:
    c = L2Cache(num_sets * assoc * 128, 128, assoc)
    assert c.num_sets == num_sets
    for la in pre:
        c.access(la)
    return c


def _state(c: L2Cache):
    return [list(s) for s in c._sets], (c.stats.hits, c.stats.misses)


def _ranges():
    return st.tuples(st.integers(0, 200), st.integers(0, 80)).map(
        lambda t: range(t[0], t[0] + t[1]))


def _iterables():
    return st.one_of(
        _ranges(),
        st.lists(st.integers(0, 260), max_size=40),
        st.tuples(st.integers(0, 200), st.integers(0, 80),
                  st.sampled_from([2, 3, -1])).map(
            lambda t: range(t[0], t[0] + t[1] * t[2], t[2])))


@settings(max_examples=400, deadline=None)
@given(num_sets=st.integers(1, 9), assoc=st.integers(1, 5),
       pre=st.lists(st.integers(0, 260), max_size=60),
       calls=st.lists(_iterables(), min_size=1, max_size=5))
@example(num_sets=4, assoc=2, pre=[0, 4, 8, 1], calls=[range(2, 5)])
@example(num_sets=4, assoc=2, pre=[0, 1, 2, 3, 4], calls=[range(3, 12),
                                                          range(8, 20)])
@example(num_sets=8, assoc=4, pre=list(range(40)), calls=[range(30, 33)])
@example(num_sets=3, assoc=2, pre=[5, 6], calls=[range(4, 4), [6, 5, 6]])
def test_warm_matches_per_line_loop(num_sets, assoc, pre, calls):
    """Sets that already hold lines (inside and outside the range),
    overlapping back-to-back ranges, ranges shorter and longer than
    ``num_sets``, empty ranges and non-contiguous iterables."""
    new = _cache(num_sets, assoc, pre)
    ref = _cache(num_sets, assoc, pre)
    for lines in calls:
        new.warm(lines)
        oracle.warm(ref, list(lines))
        assert _state(new) == _state(ref)


@pytest.mark.parametrize("make", [
    lambda: iter(range(5, 30)), lambda: (x for x in [9, 1, 9]),
    lambda: [3, 3, 3], lambda: range(40, 10, -3), lambda: range(0, 30, 2)])
def test_non_range_iterables_take_the_loop(make):
    new = _cache(4, 2, [0, 1, 2, 3, 7, 11])
    ref = _cache(4, 2, [0, 1, 2, 3, 7, 11])
    new.warm(make())
    oracle.warm(ref, list(make()))
    assert _state(new) == _state(ref)


class _TouchedSets(list):
    """The cache's set list, recording which sets were looked up."""

    touched: set

    def __getitem__(self, i):
        self.touched.add(i)
        return super().__getitem__(i)


@pytest.mark.parametrize("lines,sets", [(range(35, 38), {3, 4, 5}),
                                        (range(30, 30), set()),
                                        (range(5, 90), set(range(16)))])
def test_range_visits_only_the_sets_it_maps_to(lines, sets):
    """A range shorter than ``num_sets`` looks up only its own sets, and
    every other set keeps its lines."""
    c = _cache(16, 2, list(range(64)))
    before = [list(s) for s in c._sets]
    c._sets = _TouchedSets(c._sets)
    c._sets.touched = set()
    c.warm(lines)
    assert c._sets.touched == sets
    for i in set(range(16)) - sets:
        assert list(c._sets[i]) == before[i]
