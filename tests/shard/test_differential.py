"""Differential: a 1-shard ShardedMap IS the bare structure.

The sharding layer's no-op contract: with ``shards=1`` the routing table
routes everything to shard 0, the round-robin batch order is the
identity, the per-shard wave plan equals the global plan, and the
single instance is placed at base 0 of an identically-sized context —
so every backend must produce *identical* per-op results, final
contents, full operation counters, and full tracer statistics to the
bare structure.  Any divergence means the shard path perturbs
scheduling and its S > 1 numbers measure the perturbation, not
sharding.
"""

import dataclasses

import pytest

from repro.engine import (BACKEND_NAMES, OpBatch, available_structures,
                          make_backend, make_structure)
from repro.shard import ShardedMap
from repro.workloads import MIX_10_10_80, generate

BACKENDS = tuple(b for b in BACKEND_NAMES if b != "interleaved-chaos")


def _workload(seed=13):
    return generate(MIX_10_10_80, key_range=2_048, n_ops=400, seed=seed)


def _run(kind, workload, backend, **kwargs):
    st = make_structure(kind, workload, seed=0, **kwargs)
    st.ctx.tracer.reset_stats()
    st.metrics.reset()
    res = make_backend(backend).execute(st, OpBatch.from_workload(workload))
    counters = st.metrics.as_dict()
    trace = dataclasses.asdict(st.ctx.tracer.stats)
    return st, res.results, counters, trace


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", available_structures())
def test_one_shard_is_identical_to_bare(kind, backend):
    w = _workload()
    bare, bare_res, bare_ops, bare_trace = _run(kind, w, backend)
    shrd, shrd_res, shrd_ops, shrd_trace = _run(kind, w, backend, shards=1)
    assert isinstance(shrd, ShardedMap) and not isinstance(bare, ShardedMap)
    assert shrd_res == bare_res, "per-op results diverge"
    assert shrd.keys() == bare.keys(), "final key set diverges"
    assert shrd.items() == bare.items(), "final contents diverge"
    assert shrd_ops == bare_ops, "operation counters diverge"
    assert shrd_trace == bare_trace, "tracer statistics diverge"


@pytest.mark.parametrize("kind", available_structures())
def test_one_shard_context_matches_bare_sizing(kind):
    w = _workload()
    bare = make_structure(kind, w, seed=0)
    shrd = make_structure(f"{kind}@1", w, seed=0)
    assert shrd.ctx.mem.num_words == bare.ctx.mem.num_words
    inner = shrd.shards[0]
    assert (inner.layout.base if hasattr(inner, "layout")
            else inner.pool.base) == 0
