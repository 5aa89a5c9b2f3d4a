"""Concurrent histories of the real structures are linearizable.

The checker itself lives in :mod:`repro.chaos.linearize` (per-key
decomposition, overlap-group interval pruning, sequential register
oracle) and has its own unit tests in tests/chaos/test_linearize.py.
Here we drive the actual GFSL and the MCSkiplist baseline through the
interleaving scheduler and feed the step-stamped histories to the full
checker — every key, no size cap, exact search (no net-effect
fallback allowed).
"""

from __future__ import annotations

import random

import pytest

from repro.chaos.linearize import HistoryEvent, check_history
from repro.core import GFSL, bulk_build_into


def _random_ops(rng: random.Random, n: int, key_range: int):
    return [(rng.choice(["insert", "delete", "contains"]),
             rng.randint(1, key_range)) for _ in range(n)]


def _history(ops, results):
    return [HistoryEvent(op, k, bool(r.value), r.start_step, r.end_step)
            for (op, k), r in zip(ops, results)]


def _assert_linearizable(ops, results, prefill, final):
    report = check_history(_history(ops, results), prefill, final)
    detail = report.summary() + "".join(
        "\n" + str(v) for v in report.violations[:3])
    assert report.ok, detail
    assert report.fallback_keys == 0, "exact search should suffice here"


@pytest.mark.parametrize("sched_seed", [3, 29, 71])
def test_gfsl_concurrent_histories_linearizable(sched_seed):
    rng = random.Random(sched_seed)
    prefill = sorted(rng.sample(range(1, 300), 60))
    sl = GFSL(capacity_chunks=1024, team_size=16, seed=sched_seed)
    bulk_build_into(sl, prefill)

    ops = _random_ops(rng, 250, 300)
    gens = [getattr(sl, f"{op}_gen")(k) for op, k in ops]
    results = sl.ctx.run_concurrent(gens, seed=sched_seed)

    _assert_linearizable(ops, results, set(prefill), set(sl.keys()))


def test_mc_concurrent_histories_linearizable():
    from repro.baseline import MCSkiplist
    from repro.baseline import bulk_build_into as mc_bulk
    rng = random.Random(9)
    prefill = sorted(rng.sample(range(1, 300), 60))
    mc = MCSkiplist(capacity_words=400_000, seed=9)
    mc_bulk(mc, prefill)

    ops = _random_ops(rng, 200, 300)
    gens = [getattr(mc, f"{op}_gen")(k) for op, k in ops]
    results = mc.ctx.run_concurrent(gens, seed=13)

    _assert_linearizable(ops, results, set(prefill), set(mc.keys()))
