"""Pluggable batch-execution backends.

A backend turns ``(structure, OpBatch)`` into per-op results plus the
usual tracer accounting.  All three backends replay the *same* event
generators against the *same* :class:`~repro.gpu.memory.GlobalMemory`,
so they agree on final structure contents and per-op outcomes; they
differ only in how operations are scheduled:

* :class:`SequentialBackend` — one op at a time through the
  :func:`~repro.gpu.scheduler.run_to_completion` trampoline (the
  reference semantics).
* :class:`InterleavedBackend` — waves of ``concurrency`` in-flight ops
  through a fresh :class:`~repro.gpu.scheduler.InterleavingScheduler`
  per wave.  With :class:`~repro.chaos.hooks.ChaosHooks` attached it is
  the ``interleaved-chaos`` backend: the same wave loop plus seeded
  fault injection, history recording, and a livelock watchdog; with
  zero faults it is byte-identical to ``interleaved``.
* :class:`~repro.engine.vectorized.VectorizedBackend` (own module) —
  lock-step waves with batched numpy gathers.

``make_backend`` resolves a backend by name so callers can select
``structure × backend`` from strings (CLI flags, experiment grids).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from ..gpu.scheduler import InterleavingScheduler, run_to_completion
from ..metrics.spans import WAVE_TRACK
from .batch import OP_NAMES, OpBatch
from .interface import ConcurrentMap, op_generator

#: Batch publication modes.  ``per-op`` — every op publishes into the
#: running epoch (the pre-epoch behaviour; zero overhead).  ``batch`` —
#: the whole batch publishes atomically at one epoch bump: a snapshot
#: pinned while the batch runs sees none of it (DESIGN.md §13).
COMMIT_MODES = ("per-op", "batch")


def commit_scope(structure, commit: str):
    """The epoch-publish scope for one batch execution.

    Returns a context manager: a no-op for ``"per-op"``, one atomic
    commit on the structure's device epoch manager for ``"batch"``.
    Nestable — a batch run inside an open ``ctx.epochs.commit()`` still
    publishes at that outer scope's one bump.
    """
    if commit == "per-op":
        return nullcontext()
    if commit == "batch":
        return structure.ctx.epochs.commit()
    raise ValueError(f"unknown commit mode {commit!r} "
                     f"(available: {', '.join(COMMIT_MODES)})")


def execute_batch(structure: ConcurrentMap, batch: OpBatch,
                  backend="vectorized", commit: str = "per-op"):
    """Replay an :class:`OpBatch` through a backend (a registry name or
    a ready :class:`Backend`) — the one body behind every structure's
    ``execute_batch``.  The commit mode belongs to the call:
    ``"batch"`` publishes the whole batch at one epoch bump
    (all-or-nothing for snapshots, DESIGN.md §13)."""
    be = backend if hasattr(backend, "execute") else make_backend(backend)
    with commit_scope(structure, commit):
        return be.execute(structure, batch)


@dataclass
class BatchResult:
    """Per-op outcomes of one batch execution.

    ``results[i]`` is the return value of operation ``i`` of the batch
    (bool for all three paper ops).  ``waves`` counts scheduling rounds:
    ``len(batch)`` for sequential, ceil(len/concurrency) for the wave
    backends.  ``gen_ops`` counts ops that ran as per-op Python
    generators — ``len(results)`` for the generator backends, only the
    vectorized backend's fallback ops otherwise; the cost model scales
    its serialization charge by ``gen_ops / n_ops`` (``None`` means the
    backend predates the field and charges fully).
    """

    results: list[Any]
    backend: str
    waves: int = 1
    gen_ops: int | None = None

    def __len__(self) -> int:
        return len(self.results)


@runtime_checkable
class Backend(Protocol):
    """Executes an :class:`OpBatch` against a :class:`ConcurrentMap`."""

    name: str

    def execute(self, structure: ConcurrentMap,
                batch: OpBatch) -> BatchResult: ...


class SequentialBackend:
    """Reference backend: drain each op's generator to completion before
    starting the next (no concurrency, no races)."""

    name = "sequential"

    def execute(self, structure: ConcurrentMap,
                batch: OpBatch) -> BatchResult:
        ctx = structure.ctx
        results = [
            run_to_completion(op_generator(structure, op, key, value),
                              ctx.mem, ctx.tracer)
            for op, key, value in zip(batch.ops.tolist(),
                                      batch.keys.tolist(),
                                      batch.values.tolist())
        ]
        # One op per "wave" — occupancy is 1.0 by construction.  No
        # spans: run_to_completion has no step clock.
        structure.metrics.waves += len(results)
        structure.metrics.wave_ops += len(results)
        return BatchResult(results=results, backend=self.name,
                           waves=len(results), gen_ops=len(results))


def account_wave(metrics, index: int, wave_start: int, n_ops: int) -> None:
    """Account one finished wave: ``waves``/``wave_ops`` on the
    structure's metrics, plus a ``wave <index>`` span on the wave track
    from ``wave_start`` (the span clock when the wave began) to now."""
    metrics.waves += 1
    metrics.wave_ops += n_ops
    spans = metrics.spans
    if spans is not None:
        spans.add(f"wave {index}", wave_start, spans.clock - wave_start,
                  track=WAVE_TRACK, ops=n_ops)


class InterleavedBackend:
    """Concurrent backend: waves of ``concurrency`` ops interleaved at
    event granularity, so lock conflicts and L2 thrash between
    concurrent access streams show up in the trace.  This is the repo's
    one interleaved wave loop.

    ``concurrency=None`` defaults to the device's memory-parallelism
    limit (total MSHRs); callers with an occupancy result should pass
    :func:`~repro.gpu.kernel.default_concurrency` instead.  ``seed``
    shuffles each round's visit order (adversarial interleavings for
    stress tests); ``None`` keeps the deterministic round-robin.  Each
    wave's scheduler gets its own derived seed (``seed + wave_index``)
    so distinct waves explore distinct interleavings rather than
    replaying the same shuffle sequence.

    Shard-aware mode: a structure may expose ``batch_order(batch)``
    returning a permutation of op ids (``repro.shard.ShardedMap`` deals
    ids round-robin across shards so every wave advances every shard);
    waves are consecutive slices of that order and results still land
    at their original batch positions.  Structures without the hook
    replay in batch order.

    ``chaos`` takes a :class:`~repro.chaos.hooks.ChaosHooks`: fault
    injection, a livelock watchdog, per-wave snapshot readers and
    history recording around the *same* schedule (the backend then
    reports itself as ``interleaved-chaos``).  Without hooks the loop
    makes no per-op hook calls.
    """

    name = "interleaved"

    def __init__(self, concurrency: int | None = None,
                 seed: int | None = None, chaos=None):
        self.concurrency = concurrency
        self.seed = seed
        self.chaos = chaos
        if chaos is not None:
            self.name = chaos.name

    def execute(self, structure: ConcurrentMap,
                batch: OpBatch) -> BatchResult:
        ctx = structure.ctx
        conc = self.concurrency
        if conc is None:
            conc = ctx.device.mshr_per_sm * ctx.device.num_sms
        conc = max(1, int(conc))

        ops = batch.ops.tolist()
        keys = batch.keys.tolist()
        values = batch.values.tolist()
        order_hook = getattr(structure, "batch_order", None)
        if order_hook is None:
            order = list(range(len(ops)))
        else:
            order = [int(i) for i in order_hook(batch)]
            if len(order) != len(ops):
                raise ValueError("batch_order must permute the whole batch")
        m = structure.metrics
        spans = m.spans
        chaos = self.chaos
        tracer, injector, watchdog = ctx.tracer, None, None
        if chaos is not None:
            chaos.begin(structure)
            if not chaos.trace:
                tracer = None
            injector, watchdog = chaos.injector, chaos.watchdog
        results: list[Any] = [None] * len(ops)
        waves = 0
        try:
            for start in range(0, len(order), conc):
                wave_ids = order[start:start + conc]
                wave_seed = None if self.seed is None else self.seed + waves
                labels = None
                if spans is not None or chaos is not None:
                    labels = {j: f"{OP_NAMES[ops[g]]}({keys[g]})"
                              for j, g in enumerate(wave_ids)}
                sched = InterleavingScheduler(ctx.mem, tracer,
                                              seed=wave_seed,
                                              injector=injector,
                                              watchdog=watchdog,
                                              spans=spans, span_labels=labels)
                for g in wave_ids:
                    sched.spawn(op_generator(structure, ops[g], keys[g],
                                             values[g]))
                if chaos is not None:
                    for gen in chaos.wave_tasks(structure, labels):
                        sched.spawn(gen)
                wave_start = spans.clock if spans is not None else 0
                wave_results = sched.run()
                for g, r in zip(wave_ids, wave_results):
                    results[g] = r.value
                if chaos is not None:
                    chaos.end_wave(wave_results, wave_ids, ops, keys)
                account_wave(m, waves, wave_start, len(wave_ids))
                waves += 1
        finally:
            if chaos is not None:
                chaos.end(structure)
        return BatchResult(results=results, backend=self.name, waves=waves,
                           gen_ops=len(results))


BACKEND_NAMES = ("sequential", "interleaved", "interleaved-chaos",
                 "vectorized")


def available_backends() -> tuple[str, ...]:
    return BACKEND_NAMES


def make_backend(name: str, **kwargs) -> Backend:
    """Instantiate a backend by registry name.

    Keyword arguments go to the backend constructor (``concurrency`` /
    ``seed`` for interleaved, ``wave_size`` for vectorized).
    ``interleaved-chaos`` is the interleaved backend with
    :class:`~repro.chaos.hooks.ChaosHooks`; its extra keywords
    (``config``, ``chaos_seed``, ...) build the hooks.
    """
    if name == "sequential":
        return SequentialBackend(**kwargs)
    if name == "interleaved":
        return InterleavedBackend(**kwargs)
    if name == "interleaved-chaos":
        from ..chaos.hooks import chaos_backend  # avoid import cycle
        return chaos_backend(**kwargs)
    if name == "vectorized":
        from .vectorized import VectorizedBackend  # avoid import cycle
        return VectorizedBackend(**kwargs)
    raise ValueError(f"unknown backend {name!r} "
                     f"(available: {', '.join(BACKEND_NAMES)})")
