"""Differential tests: every backend × every structure must agree.

The engine's contract (DESIGN.md "Execution engine"): all backends
replay the same generators against the same memory model, so with a
unique-key op stream every backend produces identical per-op results,
identical final key sets, and identical invariant operation counters
(``inserts``/``deletes``/``contains_calls``).  Restart/zombie/split
counters are scheduling-dependent and deliberately excluded.

The vectorized backend additionally matches sequential replay *even
with duplicate keys*: its wave planner defers same-key ops FIFO, so no
reordering is observable.
"""

import numpy as np
import pytest

from repro.engine import (BACKEND_NAMES, OpBatch, available_structures,
                          make_backend, make_structure)
from repro.workloads import MIX_10_10_80, generate
from repro.workloads.generator import Workload

INVARIANT_STATS = ("inserts", "deletes", "contains_calls")


def _unique_key_workload(seed=5, key_range=4_000, n_ops=600) -> Workload:
    """A mixed workload whose op keys are all distinct (so op reordering
    between ops is unobservable — required for the interleaved
    backend)."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(
        np.arange(1, key_range + 1, dtype=np.int64))[:n_ops]
    ops = rng.choice(np.array([0, 1, 2], dtype=np.int64), size=n_ops,
                     p=[0.6, 0.2, 0.2])
    prefill = rng.choice(np.arange(1, key_range + 1, dtype=np.int64),
                         size=key_range // 2, replace=False)
    values = rng.integers(1, 2**31, size=n_ops, dtype=np.int64)
    return Workload(key_range=key_range, mixture=MIX_10_10_80,
                    prefill=prefill, ops=ops, keys=keys, values=values)


def _execute(kind: str, workload: Workload, backend_name: str, **kwargs):
    st = make_structure(kind, workload, seed=0, **kwargs)
    st.metrics.reset()
    res = make_backend(backend_name).execute(
        st, OpBatch.from_workload(workload))
    stats = {f: getattr(st.metrics, f) for f in INVARIANT_STATS}
    return res.results, sorted(st.keys()), stats


@pytest.mark.parametrize("kind", available_structures())
def test_all_backends_agree_on_unique_keys(kind):
    w = _unique_key_workload()
    ref_results, ref_keys, ref_stats = _execute(kind, w, BACKEND_NAMES[0])
    assert ref_stats["inserts"] > 0 and ref_stats["deletes"] > 0
    for name in BACKEND_NAMES[1:]:
        results, keys, stats = _execute(kind, w, name)
        assert results == ref_results, f"{name} per-op results diverge"
        assert keys == ref_keys, f"{name} final key set diverges"
        assert stats == ref_stats, f"{name} invariant counters diverge"


@pytest.mark.parametrize("kind", available_structures())
def test_vectorized_matches_sequential_with_duplicates(kind):
    """Duplicate-heavy stream: the wave planner's per-key FIFO deferral
    must keep vectorized replay op-for-op identical to sequential."""
    w = generate(MIX_10_10_80, key_range=500, n_ops=800, seed=13)
    assert len(set(w.keys.tolist())) < w.n_ops   # duplicates present
    seq_results, seq_keys, seq_stats = _execute(kind, w, "sequential")
    vec_results, vec_keys, vec_stats = _execute(kind, w, "vectorized")
    assert vec_results == seq_results
    assert vec_keys == seq_keys
    assert vec_stats == seq_stats


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("kind", available_structures())
def test_vectorized_matches_sequential_across_shards(kind, shards):
    """The fused cross-shard vectorized dispatch (batched critical
    sections included) keeps every shard count op-identical to
    sequential replay."""
    w = generate(MIX_10_10_80, key_range=2_048, n_ops=400, seed=13)
    kwargs = {} if shards == 1 else {"shards": shards}
    seq_results, seq_keys, seq_stats = _execute(kind, w, "sequential",
                                                **kwargs)
    vec_results, vec_keys, vec_stats = _execute(kind, w, "vectorized",
                                                **kwargs)
    assert vec_results == seq_results
    assert vec_keys == seq_keys
    assert vec_stats == seq_stats


def test_results_reflect_structure_state():
    """Spot-check semantics through the engine: insert/delete returns
    track presence, contains reflects the interleaved state."""
    w = _unique_key_workload(seed=8, n_ops=300)
    st = make_structure("gfsl", w, seed=0)
    res = make_backend("sequential").execute(st, OpBatch.from_workload(w))
    present = set(int(k) for k in w.prefill)
    for op, key, ok in zip(w.ops.tolist(), w.keys.tolist(), res.results):
        if op == 0:
            assert ok == (key in present)
        elif op == 1:
            assert ok == (key not in present)
            present.add(key)
        else:
            assert ok == (key in present)
            present.discard(key)
    assert sorted(st.keys()) == sorted(present)
