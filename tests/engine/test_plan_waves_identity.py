"""The head-queue wave planner against the carry-rescan oracle in
``scalar_plan_waves``: identical waves, in identical order, for every
input — directly and through ``ShardedMap.plan_waves``, which must keep
resolving the planner through ``repro.engine.vectorized.plan_waves``
(the benchmark's ``engine.plan_waves`` probe patches that name).
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import OP_CONTAINS, OpBatch, make_backend, plan_waves
from repro.shard import build_sharded
from repro.workloads import MIX_10_10_80, generate
from repro.workloads.generator import Mixture
from tests.engine import scalar_plan_waves as oracle

KEY_RANGE = 4_000

key_lists = st.one_of(
    st.lists(st.integers(0, 3), max_size=400),                  # hot keys
    st.lists(st.integers(0, 60), max_size=400),
    st.lists(st.integers(-2**62, 2**62), max_size=400),         # ~unique
    st.lists(st.one_of(st.integers(0, 2), st.integers(0, 10**6)),
             max_size=400),                                     # hot + tail
    st.builds(lambda k, n: [k] * n, st.integers(0, 10**6),
              st.integers(0, 300)),                             # all equal
)


@settings(max_examples=400, deadline=None)
@given(keys=key_lists, wave_size=st.integers(1, 600))
@example(keys=[], wave_size=1)
@example(keys=[7] * 6, wave_size=1)
@example(keys=[1, 1, 2, 3], wave_size=3)
def test_plans_match_oracle(keys, wave_size):
    keys = np.asarray(keys, dtype=np.int64)
    assert plan_waves(keys, wave_size) == oracle.plan_waves(keys, wave_size)


@lru_cache(maxsize=None)
def _sharded(n_shards):
    w = generate(MIX_10_10_80, key_range=KEY_RANGE, n_ops=200, seed=3)
    return build_sharded("gfsl", n_shards, w, team_size=8)


def _sharded_plans_agree(sm, keys, wave_size):
    ref = oracle.sharded_plan_waves(sm, keys, wave_size)
    assert sm.plan_waves(keys, wave_size) == ref
    with mock.patch("repro.engine.vectorized.plan_waves",
                    side_effect=oracle.plan_waves) as patched:
        assert sm.plan_waves(keys, wave_size) == ref
    assert patched.call_count == sm.n_shards


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@settings(max_examples=60, deadline=None)
@given(keys=st.one_of(st.lists(st.integers(1, 8), max_size=300),
                      st.lists(st.integers(1, KEY_RANGE), max_size=300)),
       wave_size=st.integers(4, 600))
def test_sharded_plans_match_oracle(n_shards, keys, wave_size):
    _sharded_plans_agree(_sharded(n_shards),
                         np.asarray(keys, dtype=np.int64), wave_size)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_sharded_zipf_updates_match_oracle(n_shards):
    """The hot-key shape the planner is optimised for: zipf keys with
    deep per-key queues, at the default wave budget."""
    w = generate(Mixture(40, 40, 20), KEY_RANGE, 3_000, seed=42,
                 distribution="zipf")
    _sharded_plans_agree(_sharded(n_shards), w.keys, 512)


def test_sharded_planner_rejects_budget_below_one():
    """wave_size < n_shards used to round every shard's budget up to 1,
    planning waves larger than wave_size."""
    sm = _sharded(4)
    keys = np.arange(1, 41, dtype=np.int64)
    with pytest.raises(ValueError, match="wave_size 3 .* shard count 4"):
        sm.plan_waves(keys, 3)
    batch = OpBatch(ops=np.full(40, OP_CONTAINS, dtype=np.int64),
                    keys=keys, values=keys)
    with pytest.raises(ValueError, match="wave_size 2 .* shard count 4"):
        make_backend("vectorized", wave_size=2).execute(sm, batch)
    assert max(len(wave) for wave in sm.plan_waves(keys, 4)) <= 4
