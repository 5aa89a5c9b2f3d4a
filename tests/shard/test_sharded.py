"""ShardedMap behavior: co-location, routing, aggregation, gating."""

import numpy as np
import pytest

from repro.engine import OpBatch, make_backend, make_structure
from repro.metrics.counters import MetricsCollector
from repro.shard import ShardedMap, build_sharded
from repro.workloads import MIX_10_10_80, generate


def _workload(seed=9, key_range=3_000, n_ops=300):
    return generate(MIX_10_10_80, key_range=key_range, n_ops=n_ops,
                    seed=seed)


def test_shards_are_colocated_on_one_context():
    w = _workload()
    sm = build_sharded("gfsl", 4, w)
    assert isinstance(sm, ShardedMap) and sm.n_shards == 4
    ctxs = {id(s.ctx) for s in sm.shards}
    assert ctxs == {id(sm.ctx)}, "all shards share one GPUContext"
    bases = [s.layout.base for s in sm.shards]
    assert sorted(bases) == bases and len(set(bases)) == 4
    # Regions are disjoint and fit the shared memory.
    for s, base in zip(sm.shards, bases):
        assert base + s.layout.total_words <= sm.ctx.mem.num_words
    for a, b in zip(sm.shards, sm.shards[1:]):
        assert a.layout.base + a.layout.total_words <= b.layout.base


def test_routing_matches_reference_model():
    w = _workload()
    sm = build_sharded("gfsl", 3, w)
    model = {int(k): 0 for k in w.prefill}
    assert sorted(model) == sm.keys()
    rng = np.random.default_rng(0)
    for _ in range(150):
        k = int(rng.integers(1, w.key_range + 1))
        op = rng.choice(["insert", "delete", "contains"])
        if op == "insert":
            assert sm.insert(k, k) == (k not in model)
            model.setdefault(k, k)
        elif op == "delete":
            assert sm.delete(k) == (k in model)
            model.pop(k, None)
        else:
            assert sm.contains(k) == (k in model)
    assert sm.keys() == sorted(model)
    assert len(sm) == len(model)
    assert sm.items() == sorted(model.items())


def test_cross_shard_queries():
    w = _workload()
    sm = build_sharded("gfsl", 4, w)
    keys = sm.keys()
    assert sm.min_key() == keys[0] and sm.max_key() == keys[-1]
    lo, hi = keys[5], keys[25]
    window = sm.range_query(lo, hi)
    assert [k for k, _ in window] == [k for k in keys if lo <= k <= hi]


def test_vector_kernels_gated_on_shard_capability():
    w = _workload()
    g = build_sharded("gfsl", 2, w)
    m = build_sharded("mc", 2, w)
    assert g.chunked and not m.chunked
    present = np.asarray(g.keys()[:10], dtype=np.int64)
    absent = np.asarray([w.key_range + 50], dtype=np.int64)
    for kernel in (m.vector_contains, m.vector_search):
        with pytest.raises(TypeError, match="mc@2"):
            kernel(present)
    assert g.vector_contains(present).all()
    assert not g.vector_contains(absent).any()


def test_shards_share_the_map_collector():
    """One block counts the whole map: shard-side events land on the
    map's collector, and resetting it resets every shard's view."""
    w = _workload()
    sm = build_sharded("gfsl", 2, w)
    assert all(s.metrics is sm.metrics for s in sm.shards)
    sm.metrics.reset()
    for k in sm.keys()[:6]:
        sm.contains(k)
    assert sm.metrics.contains_calls == 6
    sm.metrics.reset()
    assert all(s.metrics.contains_calls == 0 for s in sm.shards)


def test_assigning_metrics_repoints_every_shard():
    w = _workload()
    sm = build_sharded("gfsl", 2, w)
    collector = MetricsCollector()
    sm.metrics = collector
    assert all(s.metrics is collector for s in sm.shards)
    make_backend("interleaved").execute(sm, OpBatch.from_workload(w))
    assert collector.chunk_reads > 0   # shard-side traversal counts
    assert collector.waves > 0         # the backend's wave counts


def test_chaos_propagates_to_all_shards():
    w = _workload()
    sm = build_sharded("gfsl", 2, w)
    marker = object()
    sm.chaos = marker
    assert all(s.chaos is marker for s in sm.shards)
    sm.chaos = None
    assert all(s.chaos is None for s in sm.shards)


def test_batch_order_and_wave_plan_cover_batch():
    w = _workload()
    sm = build_sharded("gfsl", 4, w)
    batch = OpBatch.from_workload(w)
    order = sm.batch_order(batch)
    assert sorted(order.tolist()) == list(range(len(batch)))
    assert sm.last_shard_ops is not None
    assert sum(sm.last_shard_ops) == len(batch)
    waves = sm.plan_waves(batch.keys, 64)
    flat = [i for wave in waves for i in wave]
    assert sorted(flat) == list(range(len(batch)))
    for wave in waves:  # keys unique inside every global wave
        ks = [int(batch.keys[i]) for i in wave]
        assert len(ks) == len(set(ks))


def test_make_structure_shard_forms():
    w = _workload()
    via_suffix = make_structure("gfsl@2", w)
    via_kwarg = make_structure("gfsl", w, shards=2)
    assert isinstance(via_suffix, ShardedMap)
    assert isinstance(via_kwarg, ShardedMap)
    assert via_suffix.keys() == via_kwarg.keys()
    hashed = make_structure("gfsl", w, shards=2, partitioner="hash")
    assert hashed.keys() == via_kwarg.keys()
    with pytest.raises(ValueError):
        make_structure("gfsl@2", w, shards=4)  # conflicting counts
    with pytest.raises(ValueError):
        make_structure("gfsl@x", w)
    with pytest.raises(ValueError):
        build_sharded("nope", 2, w)
    with pytest.raises(ValueError):
        build_sharded("gfsl", 0, w)


@pytest.mark.parametrize("name,value", [("partitioner", "hash"),
                                        ("headroom", 2.0)])
def test_shard_only_keywords_raise_on_an_unsharded_build(name, value):
    """An unsharded build names a shard-only keyword instead of
    silently dropping it."""
    with pytest.raises(ValueError, match=name):
        make_structure("gfsl", _workload(), **{name: value})


def test_sharded_execute_batch_matches_sequential_reference():
    w = _workload(seed=21)
    batch = OpBatch.from_workload(w)
    sm = build_sharded("gfsl", 4, w, seed=3)
    ref = make_structure("gfsl", w, seed=3)
    out = sm.execute_batch(batch, backend="vectorized")
    ref_out = make_backend("sequential").execute(ref, batch)
    assert out.results == ref_out.results
    assert sm.keys() == ref.keys()


def test_aggregate_queries_at_three_shards_match_the_bare_structure():
    # S=3: boundaries don't align with powers of two, so off-by-one
    # segment arithmetic in routing/range assembly shows up here.
    w = _workload()
    bare = make_structure("gfsl", w, seed=0)
    sm = build_sharded("gfsl", 3, w)
    assert sm.keys() == bare.keys()
    assert sm.items() == bare.items()
    assert sm.min_key() == bare.min_key()
    assert sm.max_key() == bare.max_key()
    keys = bare.keys()
    spans = [(keys[0], keys[-1]),                    # everything
             (keys[2], keys[len(keys) // 2]),        # straddles shards
             (keys[-3], keys[-1]),                   # inside one shard
             (w.key_range + 1, w.key_range + 50)]    # empty window
    for lo, hi in spans:
        assert sm.range_query(lo, hi) == bare.range_query(lo, hi), \
            f"range [{lo}, {hi}] diverges at S=3"
    assert len(sm) == len(bare)
