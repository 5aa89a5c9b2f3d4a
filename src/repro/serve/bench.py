"""Serve campaigns: end-to-end overload runs with verification and a
run summary.

One campaign = one seeded load plan (Poisson + chaos bursts) driven
through a :class:`~repro.serve.frontend.ServeFrontend` on the virtual
loop, then audited:

* **zero hangs** — every submitted request's future resolved (plus the
  loop itself raises :class:`~repro.serve.aio.HangError` on deadlock /
  step-budget exhaustion);
* **linearizable** — executed point ops are judged by the existing
  Wing–Gong checker against the prefill and final key sets;
* **invariants** — every shard still passes
  :func:`~repro.core.validate_structure`.

:func:`run_summary` folds the report into the one JSON document
``serve-bench --run-out DIR`` writes as ``DIR/summary.json``: the
config, the verdict, the totals, p50/p99 request latency with a
log2-bucketed histogram, every counter, and the controller and
migration records of adaptive and elastic runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..chaos.linearize import HistoryRecorder, check_history
from ..chaos.serve_faults import ServeFaultInjector
from ..core import InvariantViolation, validate_structure
from ..engine import make_structure
from ..metrics import MetricsCollector
from ..metrics.spans import SpanTracer
from .aio import HangError, VirtualLoop
from .config import ServeCampaignConfig
from .frontend import ServeFrontend
from .loadgen import build_plan, make_clients, run_client, sizing_workload
from .request import ServeStats, percentile


@dataclass
class ServeReport:
    config: ServeCampaignConfig
    stats: ServeStats
    total_steps: int = 0
    hung: str | None = None
    unresolved: int = 0
    linearizable: bool | None = None     # None = not checked
    lin_summary: str = ""
    invariant_error: str | None = None
    fault_counts: dict = field(default_factory=dict)
    p50_us: float | None = None
    p99_us: float | None = None
    range_p99_us: float | None = None
    #: p99 over shards never chaos-frozen (equals p99_us faultless).
    healthy_p99_us: float | None = None
    #: Final per-shard controller rates and windows (adaptive runs).
    shard_rates: list = field(default_factory=list)
    shard_windows: list = field(default_factory=list)
    ctrl_timeline: list = field(default_factory=list)
    #: One dict per migration attempt (elastic runs).
    migration_events: list = field(default_factory=list)
    #: Routing generations published during the run.
    routing_history: list = field(default_factory=list)
    wall_seconds: float = 0.0
    transactions: int = 0
    l2_hit_rate: float = 0.0

    @property
    def ok(self) -> bool:
        return (self.hung is None and self.unresolved == 0
                and self.linearizable is not False
                and self.invariant_error is None)

    def summary(self) -> str:
        st = self.stats
        cfg = self.config
        verdict = "OK" if self.ok else "FAIL"
        lines = [
            f"serve {verdict}: {cfg.structure}/{cfg.backend} — "
            f"{st.submitted} requests, {self.total_steps:,} steps "
            f"({cfg.load.rate:.0f} req/kstep offered, seed "
            f"{cfg.load.seed})",
            f"  admitted={st.admitted} completed={st.completed} "
            f"rejected={st.rejected} shed={st.shed} expired={st.expired} "
            f"failed={st.failed} breaker_fastfail={st.breaker_fastfail}",
            f"  flushes={st.flushes} ({st.flushed_ops} ops) "
            f"retries={st.retries} breaker_opens={st.breaker_opens} "
            f"slow_client_drops={st.slow_client_drops}",
        ]
        if self.p50_us is not None:
            rng = ("-" if self.range_p99_us is None
                   else f"{self.range_p99_us:.0f}us")
            healthy = ("" if self.healthy_p99_us is None
                       else f" · healthy-shard p99={self.healthy_p99_us:.0f}us")
            lines.append(f"  point latency p50={self.p50_us:.0f}us "
                         f"p99={self.p99_us:.0f}us · range p99={rng}"
                         + healthy)
        if cfg.adaptive and self.shard_rates:
            rates = "/".join(f"{r:.0f}" for r in self.shard_rates)
            windows = "/".join(str(w) for w in self.shard_windows)
            lines.append(f"  controller: ticks={st.ctrl_ticks} "
                         f"ups={st.ctrl_rate_ups} downs={st.ctrl_rate_downs} "
                         f"rebalances={st.ctrl_rebalances} · final "
                         f"rates=[{rates}]/kstep windows=[{windows}]steps")
        if cfg.elastic:
            lines.append(f"  resharding: migrations={st.migrations} "
                         f"moved_keys={st.migrated_keys} "
                         f"delta_ops={st.migration_delta_ops} "
                         f"aborts={st.migration_aborts} "
                         f"retries={st.migration_retries} "
                         f"reconciled={st.migration_reconciled}")
        if self.hung is not None:
            lines.append(f"  HANG: {self.hung}")
        if self.unresolved:
            lines.append(f"  UNRESOLVED FUTURES: {self.unresolved}")
        if self.linearizable is not None:
            lines.append(f"  history: {self.lin_summary}")
        if self.invariant_error is not None:
            lines.append(f"  INVARIANT: {self.invariant_error}")
        if self.fault_counts:
            hits = ", ".join(f"{k}={v}" for k, v in
                             sorted(self.fault_counts.items()) if v)
            lines.append(f"  chaos: {hits or 'none hit'}")
        return "\n".join(lines)


#: Distributions skewed enough that linspace boundaries misbalance a
#: range-partitioned build — ``partitioner="auto"`` samples instead.
SKEWED_DISTRIBUTIONS = ("zipf", "hotspot", "front")


def _structure_kwargs(cfg: ServeCampaignConfig, plan) -> dict:
    """``partitioner``/``headroom`` build kwargs for sharded campaigns.

    ``"auto"`` resolves to quantile-sampled boundaries
    (:meth:`~repro.shard.RoutingTable.from_sample`) for skewed
    distributions and plain linspace ranges otherwise; the sample is
    the plan's point-request key stream, so the boundaries are a pure
    function of the campaign seed."""
    if cfg.n_shards <= 1:
        return {}
    spec = cfg.partitioner
    if spec == "auto":
        spec = ("sampled" if cfg.load.distribution in SKEWED_DISTRIBUTIONS
                else "range")
    if spec == "sampled":
        from ..shard import RoutingTable
        sample = [pr.key for pr in plan.requests if pr.kind != "range"]
        spec = RoutingTable.from_sample(cfg.n_shards, cfg.load.key_range,
                                        sample)
    return {"partitioner": spec, "headroom": cfg.headroom}


def run_serve_campaign(cfg: ServeCampaignConfig) -> ServeReport:
    """Run one seeded serve campaign end to end and audit it."""
    import time

    plan = build_plan(cfg.load, cfg.chaos)
    workload = sizing_workload(cfg.load, plan)
    structure = make_structure(cfg.structure, workload,
                               team_size=cfg.team_size,
                               **_structure_kwargs(cfg, plan))
    initial = set(int(k) for k in plan.prefill)
    tracer = structure.ctx.tracer
    tracer.reset_stats()

    loop = VirtualLoop()
    metrics = MetricsCollector(spans=SpanTracer())
    recorder = HistoryRecorder()
    injector = (ServeFaultInjector(cfg.chaos)
                if cfg.chaos is not None and cfg.chaos.any_faults else None)
    frontend = ServeFrontend(structure, loop, cfg, recorder=recorder,
                             faults=injector, metrics=metrics)

    clients = make_clients(loop, cfg.load)
    per_client = plan.by_client()
    sink: list = []

    async def main():
        frontend.start()
        tasks = [loop.create_task(
            run_client(loop, frontend, c, per_client.get(c.cid, []),
                       plan.stall_at.get(c.cid), sink),
            f"client-{c.cid}") for c in clients]
        for t in tasks:
            await t
        await frontend.drain()
        await frontend.close()

    wall = time.perf_counter()
    hung = None
    try:
        loop.run_until_complete(main(), max_steps=cfg.max_steps)
    except HangError as exc:
        hung = str(exc)
    wall = time.perf_counter() - wall

    report = ServeReport(config=cfg, stats=frontend.stats,
                         total_steps=loop.now, hung=hung,
                         wall_seconds=wall,
                         transactions=tracer.stats.transactions,
                         l2_hit_rate=tracer.stats.l2_hit_rate)
    report.unresolved = sum(1 for _req, fut in sink if not fut.done())
    if injector is not None:
        if cfg.chaos.bursts:
            injector.note("request_burst", cfg.chaos.bursts)
        if plan.stall_at:
            injector.note("stalled_client", len(plan.stall_at))
        report.fault_counts = dict(injector.counts)

    st = frontend.stats
    report.p50_us = percentile(st.point_latencies, 0.50)
    report.p99_us = percentile(st.point_latencies, 0.99)
    report.range_p99_us = percentile(st.range_latencies, 0.99)

    if frontend.controller is not None:
        snap = frontend.controller.snapshot()
        report.shard_rates = snap["rates"]
        report.shard_windows = snap["windows"]
        report.ctrl_timeline = frontend.controller.timeline
    if frontend.migrator is not None:
        report.migration_events = list(frontend.migrator.events)
        report.routing_history = list(structure.routing.history)
    frozen = (set(cfg.chaos.frozen_shard_ids())
              if cfg.chaos is not None else set())
    healthy = [lat for sid, lats in sorted(st.shard_latencies.items())
               if sid not in frozen for lat in lats]
    report.healthy_p99_us = percentile(healthy, 0.99)

    if cfg.check and hung is None:
        snapshots = (frontend.snapshot_observations
                     if cfg.snapshot_audit else None)
        lin = check_history(recorder, initial, set(structure.keys()),
                            snapshots=snapshots)
        report.linearizable = lin.ok
        report.lin_summary = lin.summary()
        shards = getattr(structure, "shards", [structure])
        try:
            for shard in shards:
                validate_structure(shard)
        except InvariantViolation as exc:
            report.invariant_error = str(exc)
    return report


def latency_histogram(stats: ServeStats) -> dict:
    """Log2-bucketed latency histogram (µs buckets)."""
    def bucketize(samples):
        buckets: dict[str, int] = {}
        for v in samples:
            lo = 1
            while lo * 2 <= max(1, v):
                lo *= 2
            label = f"{lo}-{lo * 2 - 1}us"
            buckets[label] = buckets.get(label, 0) + 1
        return dict(sorted(buckets.items(),
                           key=lambda kv: int(kv[0].split("-")[0])))
    return {
        "point_us": bucketize(stats.point_latencies),
        "range_us": bucketize(stats.range_latencies),
        "point_samples": len(stats.point_latencies),
        "range_samples": len(stats.range_latencies),
    }


def run_summary(report: ServeReport) -> dict:
    """The ``summary.json`` of ``serve-bench --run-out``: one run's
    config, verdict, totals, latency, counters and faults, plus the
    controller record (``None`` unless adaptive) and the migration
    record (``None`` unless elastic).  Goodput is completed requests
    per step, i.e. M ops/s on the 1 step = 1 µs clock."""
    cfg, st = report.config, report.stats
    steps, counters = report.total_steps, st.counters()
    controller = migrations = None
    if cfg.adaptive:
        controller = {"rates": list(report.shard_rates),
                      "windows": list(report.shard_windows),
                      "ticks": st.ctrl_ticks,
                      "timeline": list(report.ctrl_timeline)}
    if cfg.elastic:
        migrations = {name: counters[name] for name in (
            "migrations", "migration_aborts", "migration_retries",
            "migrated_keys", "migration_delta_ops", "migration_reconciled")}
        migrations["events"] = list(report.migration_events)
        migrations["routing_history"] = list(report.routing_history)
    return {
        "config": asdict(cfg),
        "verdict": {"ok": report.ok, "hung": report.hung,
                    "unresolved": report.unresolved,
                    "linearizable": report.linearizable,
                    "lin_summary": report.lin_summary,
                    "invariant_error": report.invariant_error},
        "totals": {"total_steps": steps,
                   "wall_seconds": report.wall_seconds,
                   "transactions": report.transactions,
                   "l2_hit_rate": report.l2_hit_rate,
                   "goodput_mops": st.completed / steps if steps > 0
                   else 0.0},
        "latency": {"p50_us": report.p50_us, "p99_us": report.p99_us,
                    "range_p99_us": report.range_p99_us,
                    "healthy_p99_us": report.healthy_p99_us,
                    "histogram": latency_histogram(st)},
        "counters": counters,
        "faults": dict(report.fault_counts),
        "controller": controller,
        "migrations": migrations,
    }
