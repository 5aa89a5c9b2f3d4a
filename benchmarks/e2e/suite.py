"""The benchmark's workloads, and one repetition of each.

The program is driven only through its public entry points:
``repro.workloads.generate`` and ``repro.workloads.runner.run_workload``
(given a :class:`RecordingBackend`) for replay, and
``repro.serve.run_serve_campaign`` (given a fully explicit
``ServeCampaignConfig``) for serving.  Everything the benchmark needs
beyond their return values -- due-time latency, the loop's wall time,
the checker's wall time -- is taken by probes that wrap public
functions from outside and are removed afterwards.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import repro.serve.bench as serve_bench
from repro import workloads
from repro.chaos import linearize
from repro.chaos.serve_faults import ServeChaosConfig
from repro.core import GFSL, GFSL_KERNEL, GFSLSnapshot
from repro.core import validate as core_validate
from repro.core import vector as core_vector
from repro.engine import (OP_CONTAINS, OP_INSERT, OP_NAMES, make_backend,
                          vectorized)
from repro.engine.backends import InterleavedBackend
from repro.gpu import (DeviceConfig, InterleavingScheduler, LaunchConfig,
                       TransactionTracer, compute_occupancy)
from repro.gpu.kernel import default_concurrency
from repro.metrics import MetricsCollector
from repro.serve import LoadConfig, ServeCampaignConfig, run_serve_campaign
from repro.serve.aio import VirtualLoop
from repro.serve.frontend import ServeFrontend
from repro.serve.request import RANGE
from repro.serve.request import percentile as serve_percentile
from repro.shard import ShardedMap
from repro.shard.migrate import MigrationExecutor
from repro.shard.sharded import ShardedSnapshot
from repro.workloads import Mixture, runner

from probes import LayerClock, Probe

WORD_BYTES = 8


# ---------------------------------------------------------------------------
# Workload specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Replay:
    """A generated op array replayed through one engine backend."""

    name: str
    why: str
    structure: str
    backend: str
    mix: tuple                   # [inserts, deletes, contains] percent
    key_range: int
    n_ops: int
    distribution: str = "uniform"
    seed: int = 42
    #: Input sets per run (seeds ``seed + i * SAMPLE_STRIDE``); the
    #: modeled metrics pool all of them.
    samples: int = 1


@dataclass(frozen=True)
class Serve:
    """A seeded open-loop serve campaign."""

    name: str
    why: str
    config: ServeCampaignConfig
    seed: int = 20260808
    samples: int = 1

    def config_for(self, seed: int) -> ServeCampaignConfig:
        cfg = self.config
        chaos = None if cfg.chaos is None else replace(cfg.chaos, seed=seed)
        return replace(cfg, load=replace(cfg.load, seed=seed), chaos=chaos)


SAMPLE_STRIDE = 1_000_003

#: A serve request counts toward goodput only if answered within this
#: many virtual µs of its due time (the CI campaigns' p99 gate).
LATENCY_LIMIT_US = 1000


def sample_seeds(spec, seed: int) -> list[int]:
    return [seed + i * SAMPLE_STRIDE for i in range(spec.samples)]


# Every serve field is spelled out, so a changed default in the program
# cannot silently change what the benchmark measures.

def _overload_config() -> ServeCampaignConfig:
    return ServeCampaignConfig(
        structure="gfsl@4", team_size=32, backend="vectorized",
        load=LoadConfig(n_requests=4000, n_clients=32, key_range=2048,
                        mix=(25, 10, 60, 5), rate=2400.0,
                        deadline_steps=3000, distribution="hotspot",
                        zipf_s=1.0, range_span=64, max_inflight=64,
                        delivery_depth=32, seed=0),
        chaos=ServeChaosConfig(bursts=2, burst_size=64, stalled_clients=2,
                               freeze_shard=1, freeze_at=400,
                               freeze_steps=600, frozen_windows=(),
                               abort_migrations=0, seed=0),
        coalesce_size=32, coalesce_steps=150, queue_depth=128,
        range_depth=16, admit_rate=600.0, admit_burst=64.0,
        shed_occupancy=0.5, backpressure_steps=400,
        breaker_threshold=16, breaker_reset_steps=400,
        adaptive=False, target_p99=150.0, control_interval=200,
        min_window=None, max_window=None, elastic=False,
        partitioner="auto", headroom=1.0, reshard_hot_ticks=2,
        reshard_cooldown=4, reshard_max_migrations=4, reshard_min_keys=32,
        snapshot_audit=False, retry_attempts=8, retry_base_steps=32,
        check=True, max_steps=20_000_000)


def _elastic_config() -> ServeCampaignConfig:
    return ServeCampaignConfig(
        structure="pq@4", team_size=32, backend="vectorized",
        load=LoadConfig(n_requests=4000, n_clients=24, key_range=4096,
                        mix=(30, 15, 50, 5), rate=1200.0,
                        deadline_steps=6000, distribution="front",
                        zipf_s=0.5, range_span=64, max_inflight=64,
                        delivery_depth=32, seed=0),
        chaos=ServeChaosConfig(bursts=0, burst_size=32, stalled_clients=0,
                               freeze_shard=2, freeze_at=600,
                               freeze_steps=400, frozen_windows=(),
                               abort_migrations=1, seed=0),
        coalesce_size=32, coalesce_steps=150, queue_depth=128,
        range_depth=16, admit_rate=900.0, admit_burst=64.0,
        shed_occupancy=0.5, backpressure_steps=400,
        breaker_threshold=16, breaker_reset_steps=400,
        adaptive=True, target_p99=150.0, control_interval=100,
        min_window=None, max_window=None, elastic=True,
        partitioner="range", headroom=2.0, reshard_hot_ticks=2,
        reshard_cooldown=4, reshard_max_migrations=4, reshard_min_keys=32,
        snapshot_audit=True, retry_attempts=8, retry_base_steps=32,
        check=True, max_steps=20_000_000)


def _scan_config() -> ServeCampaignConfig:
    return ServeCampaignConfig(
        structure="gfsl@4", team_size=32, backend="vectorized",
        load=LoadConfig(n_requests=1500, n_clients=16, key_range=32768,
                        mix=(25, 10, 55, 10), rate=16.0,
                        deadline_steps=3000, distribution="uniform",
                        zipf_s=1.0, range_span=64, max_inflight=64,
                        delivery_depth=32, seed=0),
        chaos=None,
        coalesce_size=32, coalesce_steps=150, queue_depth=128,
        range_depth=16, admit_rate=None, admit_burst=64.0,
        shed_occupancy=0.5, backpressure_steps=400,
        breaker_threshold=3, breaker_reset_steps=400,
        adaptive=False, target_p99=150.0, control_interval=200,
        min_window=None, max_window=None, elastic=False,
        partitioner="auto", headroom=1.0, reshard_hot_ticks=2,
        reshard_cooldown=4, reshard_max_migrations=4, reshard_min_keys=32,
        snapshot_audit=False, retry_attempts=4, retry_base_steps=32,
        check=True, max_steps=20_000_000)


WORKLOADS = {w.name: w for w in (
    Replay("replay-mixed",
           "paper mix [10,10,80] over 1M keys spills the modeled L2: read "
           "kernel, L2 model and bulk build dominate",
           structure="gfsl", backend="vectorized", mix=(10, 10, 80),
           key_range=1_000_000, n_ops=100_000),
    Replay("replay-update-skew",
           "hot-key zipf updates on an L2-resident gfsl@4: wave planner, "
           "shard router and batched update critical sections dominate",
           structure="gfsl@4", backend="vectorized", mix=(40, 40, 20),
           key_range=10_000, n_ops=20_000, distribution="zipf", samples=4),
    Replay("replay-interleaved",
           "the figures' backend: every op is a generator interleaved with "
           "real lock races, judged by the linearizability checker",
           structure="gfsl", backend="interleaved", mix=(10, 10, 80),
           key_range=100_000, n_ops=20_000),
    Serve("serve-overload",
          "2.4x overload of gfsl@4 with bursts, stalled clients and a frozen "
          "shard: admission, shedding, backpressure, retries and coalescer",
          config=_overload_config(), samples=16),
    Serve("serve-elastic",
          "front-loaded keys on pq@4 with AIMD control, online resharding, "
          "an injected migration abort and a frozen shard",
          config=_elastic_config(), seed=20260809, samples=16),
    Serve("serve-scan",
          "range scans at 16 req/kstep on 32k keys: snapshot walks cost in "
          "proportion to structure size and advance the shared clock",
          config=_scan_config(), samples=8),
)}


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """What one repetition of one input set measured.

    The host-time fields vary run to run; ``model``, ``latency`` and
    ``digest`` are a pure function of the input seed."""

    seed: int
    wall_s: float           # program time: setup + exec + audit
    setup_s: float
    exec_s: float           # Backend.execute / VirtualLoop.run_until_complete
    audit_s: float          # validate_structure (+ check_history)
    ops: int                # work behind wall_ops_per_s
    attempted: int
    failed: int
    model: dict             # goodput ops, model_s, bytes, keys
    latency: Counter        # serve: due-time µs -> completed requests
    digest: tuple
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


class RecordingBackend:
    """A :class:`repro.engine.Backend` that runs an inner backend and
    keeps the structure, batch and result it saw, plus its wall time."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.structure = None
        self.batch = None
        self.result = None
        self.wall_s = 0.0

    def execute(self, structure, batch):
        self.structure, self.batch = structure, batch
        start = time.perf_counter()
        try:
            self.result = self.inner.execute(structure, batch)
        finally:
            self.wall_s += time.perf_counter() - start
        return self.result


def _shards(structure) -> list:
    return list(getattr(structure, "shards", [structure]))


def _device_bytes(structure) -> int:
    """Modeled device bytes the chunk pools have handed out."""
    return sum(s.pool.allocated(s.ctx.mem) * s.geo.n * WORD_BYTES
               for s in _shards(structure))


def _interleaved_concurrency() -> int:
    """The runner's default concurrency for GFSL teams of 32."""
    device = DeviceConfig.gtx970()
    occ = compute_occupancy(device, LaunchConfig(warps_per_block=16,
                                                 team_size=32), GFSL_KERNEL)
    return default_concurrency(device, occ, GFSL_KERNEL)


def _make_backend(spec: Replay):
    if spec.backend == "interleaved":
        return make_backend("interleaved",
                            concurrency=_interleaved_concurrency())
    return make_backend(spec.backend)


def _reference(wl) -> tuple[list, dict]:
    """Sequential dict replay: per-op results and final items."""
    present = {int(k): 0 for k in wl.prefill}
    out = []
    for op, key, value in zip(wl.ops.tolist(), wl.keys.tolist(),
                              wl.values.tolist()):
        if op == OP_CONTAINS:
            out.append(key in present)
        elif op == OP_INSERT:
            out.append(key not in present)
            present.setdefault(key, value)
        else:
            out.append(present.pop(key, None) is not None)
    return out, present


def _wave_history(engine: RecordingBackend) -> linearize.HistoryRecorder:
    """Each interleaved op as a history event spanning its wave: ops of
    one wave are concurrent, earlier waves precede later ones."""
    batch, structure = engine.batch, engine.structure
    conc = engine.inner.concurrency
    hook = getattr(structure, "batch_order", None)
    order = range(len(batch)) if hook is None else hook(batch).tolist()
    ops, keys = batch.ops.tolist(), batch.keys.tolist()
    results = engine.result.results
    history = linearize.HistoryRecorder()
    for pos, i in enumerate(order):
        wave = pos // conc
        history.record(OP_NAMES[ops[i]], keys[i], results[i], wave, wave)
    return history


def replay_rep(spec: Replay, seed: int, check: bool = True,
               clock: LayerClock | None = None) -> Rep:
    """Generate, build and replay one input set; audit the result.  A
    traced repetition (``clock`` given) also attaches the program's
    own :class:`MetricsCollector` for the per-layer counts."""
    t0 = time.perf_counter()
    wl = workloads.generate(Mixture(*spec.mix), spec.key_range, spec.n_ops,
                            seed=seed, distribution=spec.distribution)
    gen_s = time.perf_counter() - t0
    engine = RecordingBackend(_make_backend(spec))
    metrics = None if clock is None else MetricsCollector()
    t1 = time.perf_counter()
    res = runner.run_workload(spec.structure, wl, backend=engine,
                              metrics=metrics)
    run_s = time.perf_counter() - t1
    structure = engine.structure

    interleaved = isinstance(engine.inner, InterleavedBackend)
    items = structure.items() if check or interleaved else None
    history = _wave_history(engine) if interleaved else None
    t2 = time.perf_counter()
    for shard in _shards(structure):
        core_validate.validate_structure(shard)
    lin = None
    if history is not None:
        lin = linearize.check_history(history, wl.prefill,
                                      (k for k, _ in items))
    audit_s = time.perf_counter() - t2

    results = [bool(r) for r in engine.result.results]
    stats = res.stats
    rep = Rep(
        seed=seed, wall_s=gen_s + run_s + audit_s,
        setup_s=gen_s + run_s - engine.wall_s, exec_s=engine.wall_s,
        audit_s=audit_s, ops=wl.n_ops, attempted=wl.n_ops, failed=0,
        model={"ops": wl.n_ops, "model_s": res.seconds,
               "bytes": _device_bytes(structure),
               "keys": None if items is None else len(items)},
        latency=Counter(),
        digest=(res.mops, tuple(vars(stats).values()), hash(tuple(results))))
    if lin is not None and not lin.ok:
        rep.errors.append(f"interleaved history: {lin.summary()}")
    if check:
        expected, final = _reference(wl)
        wrong = sum(a != b for a, b in zip(results, expected))
        if interleaved:
            # Same-wave reorderings are legal, so results and final set
            # may differ from batch order; check_history judged both.
            rep.notes["reordered_vs_batch_order"] = wrong
        elif wrong:
            rep.errors.append(f"{wrong} of {wl.n_ops} results differ from "
                              f"the sequential reference")
        elif dict(items) != final:
            rep.errors.append("final items differ from the sequential "
                              "reference")
    if clock is not None:
        rep.layers = replay_layers(res, metrics, structure, wl.n_ops)
    return rep


class ServeRecorder:
    """Due-time latency of every completed request, measured from
    outside through the public ``ServeFrontend.submit``.

    A request is due at ``deadline - deadline_steps`` (its planned
    arrival); its latency runs from then until its future resolves, so
    a late load generator counts against the system."""

    def __init__(self, deadline_steps: int, frozen=()):
        self.deadline_steps = deadline_steps
        self.frozen = set(frozen)
        self.frontend = None
        self.latency: Counter = Counter()    # every completed request
        self.point: Counter = Counter()
        self.range: Counter = Counter()
        self.healthy: Counter = Counter()    # points on never-frozen shards
        self.lag: Counter = Counter()        # submit step - due step

    def wrap_submit(self, submit):
        rec = self

        async def wrapped(frontend, req):
            rec.frontend = frontend
            fut = await submit(frontend, req)
            due = req.deadline - rec.deadline_steps
            rec.lag[req.submit_step - due] += 1
            sid = None if req.kind == RANGE else frontend.shard_of(req.key)
            loop = frontend.loop

            def resolved(f):
                if f.exception() is not None:
                    return
                steps = loop.now - due
                rec.latency[steps] += 1
                if sid is None:
                    rec.range[steps] += 1
                else:
                    rec.point[steps] += 1
                    if sid not in rec.frozen:
                        rec.healthy[steps] += 1
            fut.add_done_callback(resolved)
            return fut
        return wrapped


def serve_rep(spec: Serve, seed: int, check: bool = True,
              clock: LayerClock | None = None) -> Rep:
    """Run and audit one seeded campaign."""
    cfg = spec.config_for(seed)
    frozen = () if cfg.chaos is None else cfg.chaos.frozen_shard_ids()
    rec = ServeRecorder(cfg.load.deadline_steps, frozen)
    timers = clock if clock is not None else LayerClock()
    with Probe() as probe:
        probe.patch(ServeFrontend, "submit", rec.wrap_submit)
        probe.patch(VirtualLoop, "run_until_complete",
                    lambda f: timers.timed("serve.loop", f))
        probe.patch(serve_bench, "check_history",
                    lambda f: timers.timed("chaos.check", f))
        probe.patch(serve_bench, "validate_structure",
                    lambda f: timers.timed("core.validate", f))
        start = time.perf_counter()
        report = run_serve_campaign(cfg)
        wall = time.perf_counter() - start
    loop_s = timers.incl_s.get("serve.loop", 0.0)
    audit_s = (timers.incl_s.get("chaos.check", 0.0)
               + timers.incl_s.get("core.validate", 0.0))
    st = report.stats
    structure = rec.frontend.structure
    rep = Rep(
        seed=seed, wall_s=wall, setup_s=wall - loop_s - audit_s,
        exec_s=loop_s, audit_s=audit_s, ops=st.submitted,
        attempted=st.submitted,
        failed=st.expired + st.failed + st.breaker_fastfail,
        model={"ops": sum(n for steps, n in rec.latency.items()
                          if steps <= LATENCY_LIMIT_US),
               "model_s": report.total_steps * 1e-6,
               "bytes": _device_bytes(structure),
               "keys": len(structure.keys())},
        latency=rec.latency,
        digest=(tuple(sorted(st.counters().items())), report.total_steps,
                tuple(sorted(rec.latency.items())), report.transactions))
    if not report.ok:
        rep.errors.append(report.summary())
    if st.terminated != st.submitted:
        rep.errors.append(f"{st.submitted - st.terminated} of "
                          f"{st.submitted} requests never terminated")
    if sum(rec.latency.values()) != st.completed:
        rep.errors.append(f"saw {sum(rec.latency.values())} completions, "
                          f"the frontend counted {st.completed}")
    if clock is not None:
        rep.layers = serve_layers(report, rec, structure)
    return rep


def run_rep(spec, seed: int, check: bool = True,
            clock: LayerClock | None = None) -> Rep:
    if isinstance(spec, Replay):
        return replay_rep(spec, seed, check=check, clock=clock)
    return serve_rep(spec, seed, check=check, clock=clock)


# ---------------------------------------------------------------------------
# Per-layer tracing
# ---------------------------------------------------------------------------

#: Probe layer -> per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "workloads.generate": "workloads.generate_s",
    "core.build": "core.build_s",
    "engine.execute": "engine.execute_s",
    "engine.generator": "engine.generator_s",
    "engine.plan_waves": "engine.plan_waves_s",
    "core.vector_contains": "core.vector_contains_s",
    "core.vector_update_wave": "core.vector_update_wave_s",
    "core.range_query": "core.range_query_s",
    "core.validate": "core.validate_s",
    "gpu.access": "gpu.access_s",
    "shard.route": "shard.route_s",
    "serve.loop": "serve.frontend_self_s",
    "serve.execute_batch": "serve.execute_batch_s",
    "chaos.check": "chaos.check_s",
}


class TraceCounts:
    """Counts the trace probes take from call arguments and results."""

    def __init__(self):
        self.update_offered = 0
        self.update_batched = 0
        self.range_queries = 0
        self.range_tx = 0
        self.history_events = 0
        self.snapshots_judged = 0
        self.migration_steps = 0


def install_trace(probe: Probe, clock: LayerClock, counts: TraceCounts):
    """Wrap every layer boundary the per-layer metrics read."""
    def timed(layer, after=None):
        return lambda fn: clock.timed(layer, fn, after)

    def note_updates(args, kwargs, out):
        counts.update_offered += len(out[1])
        counts.update_batched += int(out[1].sum())

    def note_check(args, kwargs, report):
        counts.history_events += report.events
        counts.snapshots_judged += report.snapshots_checked

    for owner, name in ((workloads, "generate"),
                        (serve_bench, "build_plan"),
                        (serve_bench, "sizing_workload")):
        probe.patch(owner, name, timed("workloads.generate"))
    for owner in (runner, serve_bench):
        probe.patch(owner, "make_structure", timed("core.build"))
    for cls in (vectorized.VectorizedBackend, InterleavedBackend):
        probe.patch(cls, "execute", timed("engine.execute"))
    probe.patch(vectorized, "run_wave_generators", timed("engine.generator"))
    probe.patch(InterleavingScheduler, "run", timed("engine.generator"))
    probe.patch(vectorized, "plan_waves", timed("engine.plan_waves"))
    probe.patch(core_vector, "contains_multi", timed("core.vector_contains"))
    probe.patch(core_vector, "search_multi", timed("core.vector_contains"))
    probe.patch(core_vector, "update_wave",
                timed("core.vector_update_wave", note_updates))
    for cls in (GFSLSnapshot, ShardedSnapshot):
        probe.patch(cls, "range_query", lambda fn: _range_probe(
            clock.timed("core.range_query", fn), counts))
    probe.patch(core_validate, "validate_structure", timed("core.validate"))
    probe.patch(linearize, "check_history", timed("chaos.check", note_check))
    probe.patch(serve_bench, "check_history", timed("chaos.check", note_check))
    for name in ("access_words", "access_words_batch"):
        probe.patch(TransactionTracer, name, timed("gpu.access"))
    for name in ("split_batch", "batch_order", "plan_waves"):
        probe.patch(ShardedMap, name, timed("shard.route"))
    for cls in (GFSL, ShardedMap):
        probe.patch(cls, "execute_batch", timed("serve.execute_batch"))
    probe.patch(MigrationExecutor, "migrate",
                lambda fn: _migration_probe(fn, counts))


def _range_probe(timed_fn, counts: TraceCounts):
    depth = [0]

    def wrapper(self, lo, hi, tracer=None):
        depth[0] += 1
        before = tracer.stats.transactions if tracer is not None else 0
        try:
            return timed_fn(self, lo, hi, tracer=tracer)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                counts.range_queries += 1
                if tracer is not None:
                    counts.range_tx += tracer.stats.transactions - before
    return wrapper


def _migration_probe(migrate, counts: TraceCounts):
    async def wrapper(self, *args, **kwargs):
        start = self.loop.now
        try:
            return await migrate(self, *args, **kwargs)
        finally:
            counts.migration_steps += self.loop.now - start
    return wrapper


def _per_op(value, ops: int) -> float:
    return value / ops if ops else 0.0


def _imbalance(per_shard: list) -> float:
    mean = sum(per_shard) / len(per_shard) if per_shard else 0.0
    return max(per_shard) / mean if mean else 1.0


def _counters(structure) -> dict:
    """Core counters of one collector window, shard children included."""
    total = Counter(structure.metrics.as_dict()) if structure.metrics \
        else Counter()
    for child in getattr(structure, "shard_metrics", None) or ():
        total.update(child.as_dict())
    return total


def _gpu_layers(stats, ops: int) -> dict:
    return {
        "gpu.transactions_per_op": _per_op(stats.transactions, ops),
        "gpu.l2_hit_rate": stats.l2_hit_rate,
        "gpu.dram_transactions_per_op": _per_op(stats.dram_transactions, ops),
        "gpu.instructions_per_op": _per_op(stats.instructions, ops),
        "gpu.atomic_conflicts_per_op": _per_op(stats.atomic_conflicts, ops),
    }


def _core_layers(counters: dict, ops: int) -> dict:
    out = {f"core.{name}": counters.get(name, 0)
           for name in ("splits", "merges", "zombie_encounters")}
    for name in ("chunk_reads", "lateral_steps", "down_steps", "restarts",
                 "lock_cas_failed", "lock_spins"):
        out[f"core.{name}_per_op"] = _per_op(counters.get(name, 0), ops)
    return out


def replay_layers(res, metrics: MetricsCollector, structure,
                  n_ops: int) -> dict:
    counters = metrics.as_dict()
    out = {
        "engine.waves": counters["waves"],
        "engine.wave_occupancy": metrics.wave_occupancy,
        "engine.gen_fraction": _per_op(res.gen_ops, n_ops),
        "gpu.issue_cycles_per_op": _per_op(res.issue_cycles, n_ops),
        "gpu.bandwidth_cycles_per_op": _per_op(res.bandwidth_cycles, n_ops),
        "gpu.latency_cycles_per_op": _per_op(res.latency_cycles, n_ops),
        "gpu.serialization_cycles_per_op":
            _per_op(res.serialization_cycles, n_ops),
        "shard.imbalance": _imbalance(
            getattr(structure, "last_shard_ops", None) or [n_ops]),
    }
    out.update(_core_layers(counters, n_ops))
    out.update(_gpu_layers(res.stats, n_ops))
    return out


def serve_layers(report, rec: ServeRecorder, structure) -> dict:
    st = report.stats
    ops = st.completed
    n_shards = getattr(structure, "n_shards", 1)
    metrics = structure.metrics
    out = {
        "engine.waves": metrics.waves,
        "engine.wave_occupancy": metrics.wave_occupancy,
        "engine.gen_fraction": _per_op(st.gen_ops, st.flushed_ops),
        "shard.imbalance": _imbalance(
            [len(st.shard_latencies.get(s, ())) for s in range(n_shards)]),
        "shard.migrations": st.migrations,
        "shard.migration_aborts": st.migration_aborts,
        "shard.migrated_keys": st.migrated_keys,
        "shard.migration_delta_ops": st.migration_delta_ops,
        "serve.flushes": st.flushes,
        "serve.ops_per_flush": _per_op(st.flushed_ops, st.flushes),
        "serve.p50_us": percentile(rec.latency, 0.50),
        "serve.p99_us": percentile(rec.latency, 0.99),
        "serve.submit_lag_p99_us": percentile(rec.lag, 0.99),
        "serve.point_p99_us": percentile(rec.point, 0.99),
        "serve.range_p99_us": percentile(rec.range, 0.99),
        "serve.healthy_p99_us": percentile(rec.healthy, 0.99),
        "serve.latency_samples": sum(rec.latency.values()),
    }
    for name in ("rejected", "shed", "expired", "failed", "breaker_fastfail",
                 "retries", "ctrl_ticks", "ctrl_rate_downs",
                 "ctrl_rebalances"):
        out[f"serve.{name}"] = getattr(st, name)
    out.update(_core_layers(_counters(structure), ops))
    out.update(_gpu_layers(structure.ctx.tracer.stats, ops))
    return out


def trace_counts_layers(counts: TraceCounts, clock: LayerClock) -> dict:
    check_s = clock.self_s.get("chaos.check", 0.0)
    return {
        "core.update_batched_frac": _per_op(counts.update_batched,
                                            counts.update_offered),
        "core.range_tx_per_query": _per_op(counts.range_tx,
                                           counts.range_queries),
        "shard.migration_steps": counts.migration_steps,
        "serve.loop_s": clock.incl_s.get("serve.loop", 0.0),
        "chaos.history_events": counts.history_events,
        "chaos.check_us_per_event": _per_op(check_s * 1e6,
                                            counts.history_events),
        "chaos.snapshots_judged": counts.snapshots_judged,
    }


def percentile(counts: Counter, q: float) -> float:
    """``repro.serve.request.percentile`` of a value -> count histogram
    (0 when empty)."""
    return serve_percentile(list(counts.elements()), q) or 0.0
