"""GPUPriorityQueue: the registry ``pq`` structure (Shavit–Lotan)."""

import numpy as np
import pytest

from repro.core import GFSL, GPUPriorityQueue, suggest_capacity
from repro.engine import (OpBatch, available_structures, make_backend,
                          make_structure)
from repro.shard import ShardedMap
from repro.workloads import MIX_10_10_80, generate


def _pq(capacity=2_000, seed=3):
    return GPUPriorityQueue(capacity_chunks=suggest_capacity(capacity),
                            team_size=32, seed=seed)


def test_push_pop_is_heap_ordered():
    pq = _pq()
    rng = np.random.default_rng(0)
    priorities = rng.permutation(np.arange(1, 301))
    for p in priorities:
        assert pq.push(int(p), int(p) % 7)
    assert not pq.push(5), "duplicate priority re-queued"
    assert pq.peek_min() == 1
    popped = [pq.pop() for _ in range(300)]
    assert popped == sorted(popped) == list(range(1, 301))
    assert pq.pop() is None and pq.peek_min() is None


def test_batched_delete_min_drains_in_order():
    pq = _pq()
    rng = np.random.default_rng(1)
    for p in rng.permutation(np.arange(1, 201)):
        pq.push(int(p))
    first = pq.pop_min_batch(64)
    assert first == list(range(1, 65))
    rest = pq.pop_min_batch(1_000)      # larger than the queue: drains
    assert rest == list(range(65, 201))
    assert pq.pop_min_batch(8) == []
    assert len(pq) == 0


def test_pq_is_a_gfsl_and_keeps_snapshot_semantics():
    pq = _pq()
    for p in range(10, 60):
        pq.push(p)
    assert isinstance(pq, GFSL)
    with pq.begin_snapshot() as view:
        assert pq.pop_min_batch(10) == list(range(10, 20))
        snap = view.items()
    assert [k for k, _v in snap] == list(range(10, 60)), \
        "the snapshot view moved with the pops"


def test_pq_is_registered_and_shards():
    assert "pq" in available_structures()
    w = generate(MIX_10_10_80, key_range=2_048, n_ops=300, seed=7)
    bare = make_structure("pq", w, seed=0)
    assert isinstance(bare, GPUPriorityQueue)
    sharded = make_structure("pq@2", w, seed=0)
    assert isinstance(sharded, ShardedMap)
    assert all(isinstance(s, GPUPriorityQueue) for s in sharded.shards)
    res = make_backend("vectorized").execute(sharded, OpBatch.from_workload(w))
    assert len(res.results) == len(w.ops)
    # Delete-min across the sharded map = global min via routing.
    assert sharded.min_key() == min(k for k, _v in sharded.items())


@pytest.mark.parametrize("n", [0, 1])
def test_batch_edge_sizes(n):
    pq = _pq()
    pq.push(42)
    assert pq.pop_min_batch(n) == ([] if n == 0 else [42])
