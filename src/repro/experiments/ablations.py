"""Section 5.2's static-configuration studies and extra ablations.

* :func:`p_chunk_sweep` — GFSL's raise probability (paper: ≈1 is best in
  every mixture, because lowering it lengthens lateral walks without
  shrinking the height much),
* :func:`p_key_sweep` — M&C's tower probability (paper: 0.5 is best),
* :func:`chunk_size_sweep` — GFSL team/chunk size 16 vs 32 (Figure 5.1
  context),
* :func:`l2_sensitivity` — not in the paper: vary the simulated L2 to
  show the crossover range tracks the cache capacity (the paper's causal
  explanation for Figure 5.2's shape),
* :func:`sequential_vs_interleaved` — not in the paper: how much of
  M&C's melt-down the interleaved replay (cache thrashing between
  concurrent op streams) accounts for,
* :func:`restart_rate` — verifies the <0.01% Contains-restart claim at
  simulation scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import GFSL, suggest_capacity
from ..gpu import DeviceConfig
from ..workloads import MIX_10_10_80, generate, run_workload
from .harness import PAPER, Scale, run_point


@dataclass
class SweepPoint:
    parameter: float
    mops: float


def p_chunk_sweep(values=(0.25, 0.5, 0.75, 1.0), key_range: int = 300_000,
                  scale: Scale = PAPER) -> list[SweepPoint]:
    key_range = min(key_range, max(scale.ranges))
    out = []
    for p in values:
        pt = run_point("gfsl", MIX_10_10_80, key_range, scale=scale,
                       p_chunk=p, repeats=1)
        out.append(SweepPoint(p, pt.mean_mops))
    return out


def p_key_sweep(values=(0.2, 0.35, 0.5, 0.65, 0.8),
                key_range: int = 300_000,
                scale: Scale = PAPER) -> list[SweepPoint]:
    key_range = min(key_range, max(scale.ranges))
    out = []
    for p in values:
        pt = run_point("mc", MIX_10_10_80, key_range, scale=scale,
                       p_key=p, repeats=1)
        out.append(SweepPoint(p, pt.mean_mops))
    return out


def chunk_size_sweep(sizes=(16, 32), key_range: int = 1_000_000,
                     scale: Scale = PAPER) -> list[SweepPoint]:
    key_range = min(key_range, max(scale.ranges))
    out = []
    for ts in sizes:
        pt = run_point("gfsl", MIX_10_10_80, key_range, scale=scale,
                       team_size=ts, repeats=1)
        out.append(SweepPoint(ts, pt.mean_mops))
    return out


def l2_sensitivity(l2_sizes_mb=(0.5, 1.75, 8.0), key_range: int = 300_000,
                   scale: Scale = PAPER) -> list[dict]:
    """GFSL/M&C ratio as a function of L2 capacity: a bigger cache moves
    the crossover right, a smaller one moves it left — evidence for the
    paper's explanation that coalescing pays off exactly when the
    structure stops fitting in L2."""
    key_range = min(key_range, max(scale.ranges))
    out = []
    for mb in l2_sizes_mb:
        device = DeviceConfig.gtx970().with_l2(int(mb * 1024 * 1024))
        w = generate(MIX_10_10_80, key_range=key_range, n_ops=scale.n_ops,
                     seed=5)
        g = run_workload("gfsl", w, device=device)
        m = run_workload("mc", w, device=device)
        out.append(dict(l2_mb=mb, gfsl_mops=g.mops, mc_mops=m.mops,
                        ratio=g.mops / m.mops,
                        gfsl_hit=g.l2_hit_rate, mc_hit=m.l2_hit_rate))
    return out


def sequential_vs_interleaved(key_range: int = 1_000_000,
                              scale: Scale = PAPER) -> dict:
    """Replay the same M&C workload with one op in flight vs. the full
    interleave, isolating the thrashing contribution to the trace."""
    from ..baseline import MC_KERNEL
    from ..engine import OpBatch, make_backend, make_structure
    from ..gpu import LaunchConfig
    from ..gpu.kernel import default_concurrency
    from ..gpu.occupancy import compute_occupancy
    key_range = min(key_range, max(scale.ranges))
    w = generate(MIX_10_10_80, key_range=key_range, n_ops=scale.n_ops,
                 seed=9)
    out = {}
    for label in ("sequential", "interleaved"):
        mc = make_structure("mc", w)
        occ = compute_occupancy(mc.ctx.device, LaunchConfig(), MC_KERNEL)
        kwargs = ({"concurrency": default_concurrency(
            mc.ctx.device, occ, MC_KERNEL)} if label == "interleaved" else {})
        mc.ctx.tracer.reset_stats()
        make_backend(label, **kwargs).execute(mc, OpBatch.from_workload(w))
        stats = mc.ctx.tracer.stats
        timing = mc.ctx.cost_model.evaluate(stats, occ, ops=w.n_ops,
                                            kernel=MC_KERNEL)
        out[label] = dict(mops=timing.mops,
                          l2_hit=stats.l2_hit_rate,
                          dram_per_op=stats.dram_transactions / w.n_ops)
    return out


def warp_lockstep_mc(key_range: int = 300_000,
                     scale: Scale = PAPER) -> dict:
    """Not in the paper: re-run M&C under full warp-lockstep accounting
    (32 lanes advancing together, loads coalesced *across* the warp).

    Quantifies how much intra-warp coalescing a thread-per-op design
    gets for free — the shared head-tower reads fold into single
    transactions — versus the per-op accounting the benchmarks use.
    The residual gap to GFSL is the paper's point: per-lane pointer
    chasing stays scattered below the shared tower top.
    """
    from ..engine import OpBatch, make_backend, make_structure, op_generator
    from ..gpu.warp import run_in_warps
    key_range = min(key_range, max(scale.ranges))
    w = generate(MIX_10_10_80, key_range=key_range, n_ops=scale.n_ops,
                 seed=17)
    out = {}

    mc = make_structure("mc", w)
    mc.ctx.tracer.reset_stats()
    gens = [op_generator(mc, int(op), int(key))
            for op, key in zip(w.ops, w.keys)]
    _, wstats = run_in_warps(gens, mc.ctx.mem, mc.ctx.tracer)
    t = mc.ctx.tracer.stats
    out["lockstep"] = dict(
        transactions_per_op=t.transactions / w.n_ops,
        coalesced_lane_requests_per_op=wstats.coalesced_lane_requests
        / w.n_ops,
        divergence_ratio=wstats.divergence_ratio)

    mc2 = make_structure("mc", w)
    mc2.ctx.tracer.reset_stats()
    make_backend("sequential").execute(mc2, OpBatch.from_workload(w))
    t2 = mc2.ctx.tracer.stats
    out["per-op"] = dict(transactions_per_op=t2.transactions / w.n_ops,
                         coalesced_lane_requests_per_op=0.0,
                         divergence_ratio=0.0)
    return out


def restart_rate(key_range: int = 100_000, n_ops: int = 4000,
                 seed: int = 3) -> dict:
    """Drive a concurrent mixed batch and measure the Contains-restart
    frequency (§4.2.1 claims < 0.01% on hardware; interleaved simulation
    is far more adversarial per operation, so the bar here is 'rare')."""
    from ..core import bulk_build_into
    rng = np.random.default_rng(seed)
    prefill = rng.choice(np.arange(1, key_range + 1), size=key_range // 2,
                         replace=False)
    sl = GFSL(capacity_chunks=suggest_capacity(key_range), seed=seed)
    bulk_build_into(sl, prefill, rng=sl.rng)
    gens = []
    keys = rng.integers(1, key_range + 1, size=n_ops)
    kinds = rng.random(n_ops)
    for k, u in zip(keys, kinds):
        k = int(k)
        if u < 0.4:
            gens.append(sl.contains_gen(k))
        elif u < 0.7:
            gens.append(sl.insert_gen(k))
        else:
            gens.append(sl.delete_gen(k))
    sl.ctx.run_concurrent(gens, seed=seed)
    m = sl.metrics
    contains_ops = max(1, m.contains_calls)
    return dict(contains_ops=contains_ops, restarts=m.contains_restarts,
                rate=m.contains_restarts / contains_ops)
