"""Generation-0 routing tables: totality, determinism, balance, and the
``build_sharded`` resolver of the ``partitioner`` keyword."""

import numpy as np
import pytest

from repro.shard import RoutingTable, build_sharded
from repro.workloads import MIX_10_10_80, generate

ALL_KINDS = ("range", "hash")


def _table(kind, n_shards, key_range):
    if kind == "range":
        return RoutingTable.range(n_shards, key_range)
    return RoutingTable.hash(n_shards)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_total_and_deterministic(kind):
    part = _table(kind, 4, 10_000)
    keys = np.arange(1, 10_001, dtype=np.int64)
    ids = part.shard_of_array(keys)
    assert ids.min() >= 0 and ids.max() < 4
    # Scalar path agrees with the vectorized path.
    sample = keys[:: 977]
    assert [part.shard_of(int(k)) for k in sample] \
        == part.shard_of_array(sample).tolist()
    # Same key always lands on the same shard.
    assert np.array_equal(ids, part.shard_of_array(keys))


def test_range_partitioner_is_contiguous_and_balanced():
    part = RoutingTable.range(4, 1000)
    ids = part.shard_of_array(np.arange(1, 1001, dtype=np.int64))
    # Contiguous: shard ids are non-decreasing over sorted keys.
    assert np.all(np.diff(ids) >= 0)
    # Balanced within one key for a uniform range.
    counts = np.bincount(ids, minlength=4)
    assert counts.max() - counts.min() <= 1
    # Keys past the sizing hint overflow into the last shard.
    assert part.shard_of(10**6) == 3


def test_hash_partitioner_balances_clustered_keys():
    part = RoutingTable.hash(4)
    clustered = np.arange(1, 2001, dtype=np.int64)  # one dense run
    counts = np.bincount(part.shard_of_array(clustered), minlength=4)
    assert counts.min() > 0.15 * clustered.size  # no starved shard


def test_build_sharded_resolves_the_partitioner():
    w = generate(MIX_10_10_80, key_range=100, n_ops=20, seed=1)
    with pytest.raises(ValueError, match="unknown partitioner"):
        build_sharded("gfsl", 2, w, partitioner="nope", team_size=8)
    ready = RoutingTable.range(2, 100)
    assert build_sharded("gfsl", 2, w, partitioner=ready,
                         team_size=8).routing is ready
    with pytest.raises(ValueError, match="covers 2 shards"):
        build_sharded("gfsl", 4, w, partitioner=ready)  # count mismatch
    with pytest.raises(TypeError):
        build_sharded("gfsl", 2, w, partitioner=42)
    hashed = build_sharded("gfsl", 2, w, partitioner="hash", team_size=8)
    assert not hashed.routing.range_expressible
