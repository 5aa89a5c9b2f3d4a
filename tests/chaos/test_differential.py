"""Differential satellite: ``interleaved-chaos`` with zero faults must
be *byte-identical* to ``interleaved`` — same per-op results, same final
structure, same values of every scheduling-sensitive counter (splits,
merges, lock retries, restarts), same tracer statistics and the same
device memory image, because the injector draws nothing and emits
nothing at rate zero and both run the one wave loop.  Pinned for every
structure the claim names, sharded builds (``batch_order``) included.

This is deliberately stronger than the engine-level differential test
(tests/engine/test_differential.py), which only compares the
scheduling-*invariant* counters across all backends.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosHooks, check_history
from repro.chaos.faults import ChaosConfig
from repro.engine import (BACKEND_NAMES, InterleavedBackend, OpBatch,
                          make_backend, make_structure)
from repro.workloads import Mixture, generate


def _run(backend, kind, workload):
    params = ({"team_size": 8, "p_chunk": 1.0} if kind.startswith("gfsl")
              else {})
    sl = make_structure(kind, workload, seed=3, **params)
    sl.metrics.reset()
    res = backend.execute(sl, OpBatch.from_workload(workload))
    stats = sl.metrics.as_dict()
    return (res.results, sorted(sl.keys()), stats,
            vars(sl.ctx.tracer.stats), sl.ctx.mem.raw().tobytes())


#: (structure, scheduler seed); the unsharded gfsl cases keep their
#: historical ids.
CASES = [pytest.param(kind, seed,
                      id=str(seed) if kind == "gfsl" else f"{kind}-{seed}")
         for kind in ("gfsl", "gfsl@4", "mc", "mc@4")
         for seed in (None, 5)]


@pytest.mark.parametrize("kind,sched_seed", CASES)
def test_zero_fault_chaos_byte_identical_to_interleaved(kind, sched_seed):
    # Duplicate-heavy stream: any schedule divergence would show up as
    # differing per-op results, not just differing counters.
    w = generate(Mixture(30, 30, 40), key_range=80, n_ops=400, seed=11)
    ref = _run(make_backend("interleaved", concurrency=12, seed=sched_seed),
               kind, w)
    got = _run(InterleavedBackend(concurrency=12, seed=sched_seed,
                                  chaos=ChaosHooks()), kind, w)
    assert got[0] == ref[0], "per-op results diverge"
    assert got[1] == ref[1], "final key set diverges"
    assert got[2] == ref[2], "scheduling-sensitive counters diverge"
    assert got[3] == ref[3], "tracer statistics diverge"
    assert got[4] == ref[4], "device memory image diverges"


def test_registered_in_engine():
    assert "interleaved-chaos" in BACKEND_NAMES
    b = make_backend("interleaved-chaos", concurrency=4, chaos_seed=2)
    assert isinstance(b, InterleavedBackend)
    assert b.name == "interleaved-chaos"
    assert b.concurrency == 4 and b.chaos.chaos_seed == 2


def test_faulty_run_records_full_linearizable_history():
    w = generate(Mixture(25, 25, 50), key_range=60, n_ops=300, seed=4)
    sl = make_structure("gfsl", w, team_size=8, p_chunk=1.0, seed=3)
    hooks = ChaosHooks(config=ChaosConfig.adversarial(), chaos_seed=4)
    res = InterleavedBackend(concurrency=8, chaos=hooks).execute(
        sl, OpBatch.from_workload(w))
    assert len(res) == w.n_ops
    assert len(hooks.recorder) == w.n_ops
    assert hooks.injector.total_injected > 0
    # Wave offsetting keeps every interval well-formed and the whole
    # history totally ordered across waves.
    assert all(e.start <= e.end for e in hooks.recorder.events)
    report = check_history(hooks.recorder,
                           set(int(k) for k in w.prefill), set(sl.keys()))
    assert report.ok, report.summary()
