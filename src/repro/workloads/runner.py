"""Workload runner: builds a structure, replays an op array through the
simulated device, and evaluates the cost model — one call per data point
of the paper's figures.

Scaling note (DESIGN.md §2): the paper runs 10M operations per point;
the simulator replays a scaled sample (default 4000) on a bulk-built
steady-state structure.  Throughput in the model is a per-operation
cost, so the sample size affects confidence intervals, not means.

The runner also applies the *contention model*: sequential replay cannot
observe lock conflicts, so the expected conflict cost is charged
analytically from the number of update operations in flight and the
number of lockable slots (chunks for GFSL — coarse, hence the paper's
small-range dip; nodes for M&C).  And it applies the paper-scale
*feasibility check*: M&C preallocates full-tower nodes and runs out of
device memory beyond the 10M (mixed) / 3M (single-op) ranges
(Section 5.3), so those points report OOM like the paper's missing bars.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..baseline.node import HEADER_WORDS
from ..core.bulk import DEFAULT_FILL, _per_chunk
from ..engine import (Backend, OpBatch, make_backend, make_structure,
                      parse_structure_kind, structure_spec)
from ..gpu import DeviceConfig, LaunchConfig, TraceStats
from ..gpu.kernel import default_concurrency
from ..gpu.occupancy import compute_occupancy
from .generator import Mixture, Workload

# GTX 970's usable fast segment (the infamous 3.5+0.5 GB split, minus
# driver/runtime reservations) — governs the paper-scale OOM points:
# M&C fits mixed tests to 10M keys and single-op tests to 3M (§5.3).
MC_USABLE_BYTES = 2.6 * 1024**3
MC_NODE_BYTES = (HEADER_WORDS + 32) * 8       # full-tower preallocation
PAPER_OPS = 10_000_000

# Contention coefficients (serialized cycles per op at full saturation):
# GFSL locks whole chunks (coarse slots → strong small-range dips,
# Section 5.3's "tradeoff between faster traversal and higher
# contention"); M&C contends per node.
GFSL_CONTENTION = (30.0, 0.2)   # (cycles at saturation, update-frac exp)
MC_CONTENTION = (5000.0, 1.5)


@dataclass
class RunResult:
    """One data point: throughput + diagnostics."""

    structure: str
    team_size: int
    key_range: int
    mixture_name: str
    n_ops: int
    mops: float
    seconds: float
    stats: TraceStats
    bottleneck: str
    occupancy: float
    l2_hit_rate: float
    transactions_per_op: float
    oom: bool = False
    #: Shard count of the structure (1 = unsharded single instance).
    shards: int = 1
    #: Host wall-clock of the replay itself (informational — the model
    #: time is ``seconds``; this one varies across machines).
    wall_seconds: float = 0.0
    #: MetricsCollector.as_dict() snapshot when a collector was passed.
    counters: dict | None = field(default=None)
    #: Ops the backend replayed as per-op generators (the vectorized
    #: backend's fallback residue; equals ``n_ops`` for generator-only
    #: backends).  ``gen_ops / n_ops`` is the bench report's "gen%".
    gen_ops: int = 0
    #: Cost-model attribution: the three roofline terms plus the
    #: analytic serialization charge (BENCH replay-row columns).  The
    #: binding bound is ``bottleneck``.
    issue_cycles: float = 0.0
    bandwidth_cycles: float = 0.0
    latency_cycles: float = 0.0
    serialization_cycles: float = 0.0

    @staticmethod
    def oom_point(structure: str, team_size: int, key_range: int,
                  mixture_name: str) -> "RunResult":
        """A NaN-throughput point marking a paper-scale OOM range."""
        return RunResult(structure=structure, team_size=team_size,
                         key_range=key_range, mixture_name=mixture_name,
                         n_ops=0, mops=float("nan"), seconds=float("nan"),
                         stats=TraceStats(), bottleneck="oom", occupancy=0.0,
                         l2_hit_rate=0.0, transactions_per_op=0.0, oom=True)


def mc_paper_scale_feasible(key_range: int, mixture: Mixture,
                            paper_ops: int | None = None) -> bool:
    """Would M&C's allocation strategy fit the GTX 970 at paper scale?"""
    ops = paper_ops if paper_ops is not None else (
        key_range if mixture.kind != "mixed" else PAPER_OPS)
    prefill = key_range // 2 if mixture.kind == "mixed" else (
        0 if mixture.kind == "insert-only" else key_range)
    insert_ops = ops * mixture.inserts // 100
    if mixture.kind == "insert-only":
        insert_ops = ops
    need = (prefill + insert_ops) * MC_NODE_BYTES + ops * 16
    return need <= MC_USABLE_BYTES


def contention_serial_cycles(device: DeviceConfig, occ, kernel,
                             workload: Workload, slots: int,
                             coeff: tuple[float, float]) -> float:
    """Expected serialized conflict cycles: update ops in flight compete
    for ``slots`` lockable locations (chunks for GFSL, nodes for M&C);
    each conflict burns one retry of ``conflict_cost`` cycles that the
    warp scheduler cannot hide.  The in-flight count is capped by the
    memory-parallelism limit — threads stalled on the MSHR queue are not
    actively contending."""
    uf = workload.mixture.update_fraction
    if uf <= 0.0 or slots <= 0:
        return 0.0
    in_flight = (occ.active_warps_per_sm * device.num_sms
                 * max(1, device.warp_size // kernel.lanes_per_op))
    in_flight = min(in_flight, device.mshr_per_sm * device.num_sms)
    # Saturating pressure: once in-flight ops rival the number of
    # lockable slots, every op (searches included — they re-traverse
    # chunks being rewritten) pays serialized retry cycles.  The weak
    # exponent reflects that even a few percent of updates keeps a hot
    # small structure perpetually contended (the paper sees the dip at
    # [1,1,98] already).
    cost, exp = coeff
    pressure = (in_flight / slots) ** 2
    saturation = pressure / (1.0 + pressure)
    return workload.n_ops * cost * (uf ** exp) * saturation


def run_workload(structure_kind: str, workload: Workload,
                 team_size: int = 32, p_chunk: float = 1.0,
                 p_key: float = 0.5,
                 launch: LaunchConfig | None = None,
                 device: DeviceConfig | None = None,
                 seed: int = 0,
                 enforce_paper_oom: bool = True,
                 backend: str | Backend = "interleaved",
                 metrics=None, shards: int | None = None,
                 partitioner: str = "range") -> RunResult:
    """Execute one benchmark point.  ``structure_kind`` is ``"gfsl"`` or
    ``"mc"``, optionally with an ``@<shards>`` suffix (``"gfsl@4"``).

    ``shards`` (or the suffix) partitions the key space across that many
    co-located instances via :mod:`repro.shard`; ``partitioner`` selects
    the split ("range"/"hash").  ``shards=None`` without a suffix is the
    classic single-instance build.

    ``backend`` selects the batch-engine execution path (name from
    :func:`repro.engine.available_backends` or a ready
    :class:`~repro.engine.Backend` instance).  The default
    ``"interleaved"`` replays ops in waves sized by the device's
    memory-parallelism limit — the engine's one interleaved wave loop,
    and the setting every published figure uses.  All backends agree on
    per-op outcomes; they differ in replay wall-clock and in which
    conflict effects appear organically in the trace (the analytic
    contention charge below is applied identically either way).

    ``metrics`` optionally takes a
    :class:`~repro.metrics.counters.MetricsCollector`; it is assigned to
    the structure before the replay (so prefill/bulk-build is *not*
    counted) and its snapshot lands in ``RunResult.counters``.
    """
    device = device or DeviceConfig.gtx970()
    base_kind, kind_shards = parse_structure_kind(structure_kind)
    spec = structure_spec(base_kind)
    is_sharded = "@" in structure_kind or shards is not None
    n_shards = kind_shards if shards is None else int(shards)
    if not spec.chunked and enforce_paper_oom and not mc_paper_scale_feasible(
            workload.key_range, workload.mixture):
        return RunResult.oom_point(spec.label, 32, workload.key_range,
                                   workload.mixture.name)
    kernel = spec.kernel
    if spec.chunked and team_size < 32:
        # Sub-warp teams pay mask-management overhead on every
        # cooperative op ("care must be taken to only evaluate values
        # read by the current team when using teams smaller than warp
        # size", Section 4.2.1) — part of why GFSL-32 beats GFSL-16
        # despite the latter's single-transaction chunks (Section 5.2).
        factor = (32 / team_size) ** 0.5
        kernel = replace(kernel, op_overhead_instructions=kernel
                         .op_overhead_instructions * factor)
    # An M&C op is one thread: its launch and label have no team size.
    lanes = team_size if spec.chunked else 32
    launch = launch or LaunchConfig(warps_per_block=16, team_size=lanes)
    placement = (dict(shards=n_shards, partitioner=partitioner)
                 if is_sharded else {})
    st = make_structure(base_kind, workload, team_size=team_size,
                        p_chunk=p_chunk, p_key=p_key, device=device,
                        seed=seed, **placement)
    if spec.chunked:
        # ``pq`` is a GFSL build behind a priority-queue wrapper: same
        # layout, kernel profile, and contention charge.
        slots = max(1, len(workload.prefill)
                    // _per_chunk(st.geo, DEFAULT_FILL))
        conflict = GFSL_CONTENTION
        label = f"{spec.label}-{team_size}"
    else:
        slots = max(1, len(workload.prefill))
        conflict = MC_CONTENTION
        label = spec.label
    if is_sharded:
        label = f"{label}x{n_shards}"

    occ = compute_occupancy(device, launch, kernel)
    extra = contention_serial_cycles(device, occ, kernel, workload, slots,
                                     conflict)
    if isinstance(backend, str):
        kwargs = {}
        if backend == "interleaved":
            kwargs["concurrency"] = default_concurrency(device, occ, kernel)
        engine = make_backend(backend, **kwargs)
    else:
        engine = backend
    st.ctx.tracer.reset_stats()
    if metrics is not None:
        st.metrics = metrics
    t0 = time.perf_counter()
    res = engine.execute(st, OpBatch.from_workload(workload))
    wall = time.perf_counter() - t0
    stats = st.ctx.tracer.stats
    gen_ops = getattr(res, "gen_ops", None)
    if gen_ops is not None:
        # Only ops replayed as per-op generators serialize on locks; the
        # vectorized backend's batched critical sections are conflict-free
        # by construction, so they escape the analytic contention charge.
        extra *= gen_ops / max(1, workload.n_ops)
    timing = st.ctx.cost_model.evaluate(
        stats, occ, ops=workload.n_ops, kernel=kernel,
        extra_serial_cycles=extra)
    return RunResult(
        structure=label,
        team_size=lanes,
        key_range=workload.key_range,
        mixture_name=workload.mixture.name,
        n_ops=workload.n_ops,
        mops=timing.mops,
        seconds=timing.seconds,
        stats=stats,
        bottleneck=timing.bottleneck,
        occupancy=timing.achieved_occupancy,
        l2_hit_rate=stats.l2_hit_rate,
        transactions_per_op=stats.transactions / max(1, workload.n_ops),
        shards=n_shards if is_sharded else 1,
        wall_seconds=wall,
        counters=metrics.as_dict() if metrics is not None else None,
        gen_ops=workload.n_ops if gen_ops is None else int(gen_ops),
        issue_cycles=timing.issue_cycles,
        bandwidth_cycles=timing.bandwidth_cycles,
        latency_cycles=timing.latency_cycles,
        serialization_cycles=timing.serialization_cycles,
    )
