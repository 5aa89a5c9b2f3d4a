"""Lock-step wave backend with batched numpy event execution.

The :class:`VectorizedBackend` drains a batch in *waves*.  Waves give
the replay the shape of a real kernel grid — a bounded set of in-flight
team operations with a full barrier between rounds — and give the
engine two batching opportunities per wave:

* **Reads first.** A wave's ``Contains`` ops run before its updates, so
  they see quiescent memory and can be answered by the structure's
  vectorized multi-key kernel (:func:`repro.core.vector.vector_contains`
  for GFSL) — one numpy gather per traversal step for the whole group
  instead of one Python event per pointer hop.  Structures without
  the kernels (the M&C baseline, which has no chunks) simply run their
  contains generators with the updates.

* **Vectorized critical sections.** With ``vector_update_wave``
  (chunked kinds have both kernels), the wave's inserts/deletes go to
  :func:`repro.core.vector.update_wave`, which executes every
  provably conflict-free group's lock–modify–publish sequence as three
  batched accesses and returns the rest with precomputed traversal
  hints — only those fall through to per-op generators below.

* **Homogeneous event groups.** The wave's remaining generators advance
  in lock-step; each tick's ``ChunkRead``/``WordRead`` events are
  grouped and dispatched through one fancy-index against
  :meth:`~repro.gpu.memory.GlobalMemory.raw` plus one
  :meth:`~repro.gpu.tracer.TransactionTracer.access_words_batch` call.
  All other events (CAS, atomics, writes, compute) go through the
  ordinary :func:`~repro.gpu.scheduler.execute_event` in slot order, so
  the tick is just one deterministic round-robin round.

**Determinism.** :func:`plan_waves` never places two operations on the
same key in one wave — the later one is deferred (FIFO per key) to a
later wave.  Within a wave all keys are distinct, so reordering reads
before updates cannot change any op's outcome, and the full barrier
between waves means every op observes exactly the structure state the
sequential backend would have shown it.  Per-op results and final
contents therefore match :class:`~repro.engine.backends.SequentialBackend`
op for op (lock-free restart *counts* may differ; outcomes do not).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Any, Generator

import numpy as np

from ..gpu import events as ev
from ..gpu.memory import GlobalMemory
from ..gpu.scheduler import execute_event
from ..gpu.tracer import TransactionTracer
from .backends import BatchResult, account_wave
from .batch import OP_CONTAINS, OP_INSERT, OP_NAMES, OpBatch
from .interface import ConcurrentMap, op_generator

DEFAULT_WAVE_SIZE = 512


def plan_waves(keys, wave_size: int = DEFAULT_WAVE_SIZE) -> list[list[int]]:
    """Partition op indices into waves of at most ``wave_size`` with no
    key repeated inside a wave.

    Ops on a repeated key are carried to a later wave, and once a key
    has a deferred op, every later op on that key defers behind it —
    per-key FIFO order is preserved exactly, which is what makes the
    wave schedule outcome-equivalent to sequential replay.

    Equivalently, each wave is the first ``wave_size`` per-key queue
    heads in index order (a head is the earliest unplanned op on its
    key).  The first op of every key is a head from the start and those
    are already in index order, so only successors — the next op on a
    key, found by one stable argsort — go through a min-heap; each wave
    merges the two streams.  O(n log n) overall.
    """
    if wave_size < 1:
        raise ValueError("wave_size must be >= 1")
    keys = np.asarray(keys, dtype=np.int64)
    n = int(keys.size)
    if n == 0:                    # range-only serve flushes plan nothing
        return []
    if len(set(keys.tolist())) == n:
        # No key repeats, so no op ever defers: consecutive slices.
        return [list(range(s, min(s + wave_size, n)))
                for s in range(0, n, wave_size)]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    succ_arr = np.full(n, -1, dtype=np.int64)
    succ_arr[order[:-1][same]] = order[1:][same]
    is_first = np.ones(n, dtype=bool)
    is_first[order[1:][same]] = False
    succ = succ_arr.tolist()
    firsts = np.flatnonzero(is_first).tolist()
    n_firsts = len(firsts)
    fp = 0                        # firsts[fp:] are still unplanned
    heap: list[int] = []          # successors that became heads
    waves: list[list[int]] = []
    while fp < n_firsts or heap:
        wave: list[int] = []
        room = wave_size
        while room:
            nxt_first = firsts[fp] if fp < n_firsts else n
            while heap and heap[0] < nxt_first and room:
                wave.append(heappop(heap))
                room -= 1
            if not room or fp == n_firsts:
                break
            hi = min(n_firsts, fp + room)
            j = bisect_left(firsts, heap[0], fp, hi) if heap else hi
            wave.extend(firsts[fp:j])
            room -= j - fp
            fp = j
        for i in wave:
            if succ[i] >= 0:
                heappush(heap, succ[i])
        waves.append(wave)
    return waves


class _Task:
    __slots__ = ("slot", "gen", "event", "pending", "started")

    def __init__(self, slot: int, gen: Generator):
        self.slot = slot
        self.gen = gen
        self.event = None
        self.pending: Any = None
        self.started = False


def _check_bounds(mem: GlobalMemory, addrs: np.ndarray, n: int) -> None:
    """The memory's own ``IndexError`` for a read group reaching out of
    bounds (a fancy index would wrap -1), before anything is touched."""
    lo, hi = int(addrs.min()), int(addrs.max())
    if lo < 0 or hi + n > mem.num_words:
        mem._check(lo, n)
        mem._check(hi, n)


def run_wave_generators(tasks, mem: GlobalMemory,
                        tracer: TransactionTracer | None,
                        spans=None, span_labels=None) -> dict[int, Any]:
    """Advance ``(slot, generator)`` pairs in lock-step, batching each
    tick's homogeneous read events; returns ``{slot: return value}``.

    One tick sends every live generator its pending result and collects
    its next event — a fair round-robin round, so spin-locks progress.

    With a :class:`~repro.metrics.spans.SpanTracer` in ``spans``, each
    op is recorded as one span in *ticks* (all ops start at tick 0 —
    the wave is lock-step) and the tracer's clock advances by the
    wave's tick count.
    """
    results: dict[int, Any] = {}
    live = [_Task(slot, gen) for slot, gen in tasks]
    raw = mem.raw()
    span_labels = span_labels or {}
    base = spans.clock if spans is not None else 0
    tick = 0
    while live:
        advancing: list[_Task] = []
        for t in live:
            try:
                if t.started:
                    t.event = t.gen.send(t.pending)
                else:
                    t.started = True
                    t.event = next(t.gen)
                t.pending = None
                advancing.append(t)
            except StopIteration as stop:
                results[t.slot] = stop.value
                if spans is not None:
                    spans.add(span_labels.get(t.slot, f"op {t.slot}"),
                              base, tick, track=t.slot, ticks=tick)
        live = advancing
        if not live:
            break
        tick += 1

        chunk_groups: dict[int, list[_Task]] = {}
        word_tasks: list[_Task] = []
        others: list[_Task] = []
        for t in live:
            e = t.event
            if type(e) is ev.ChunkRead:
                chunk_groups.setdefault(e.n, []).append(t)
            elif type(e) is ev.WordRead:
                word_tasks.append(t)
            else:
                others.append(t)

        for n, group in chunk_groups.items():
            addrs = np.fromiter((t.event.addr for t in group),
                                dtype=np.int64, count=len(group))
            _check_bounds(mem, addrs, n)
            if tracer is not None:
                tracer.access_words_batch(addrs, n, coalesced=True)
                tracer.record_compute(len(group))
            rows = raw[addrs[:, None] + np.arange(n, dtype=np.int64)]
            for i, t in enumerate(group):
                t.pending = rows[i]
        if word_tasks:
            addrs = np.fromiter((t.event.addr for t in word_tasks),
                                dtype=np.int64, count=len(word_tasks))
            _check_bounds(mem, addrs, 1)
            if tracer is not None:
                tracer.access_words_batch(addrs, 1, coalesced=False)
                tracer.record_compute(len(word_tasks))
            for t, value in zip(word_tasks, raw[addrs].tolist()):
                t.pending = value
        for t in others:
            t.pending = execute_event(t.event, mem, tracer)
    if spans is not None:
        spans.advance(tick)
    return results


class VectorizedBackend:
    """Wave-parallel backend: vectorized contains + lock-step updates."""

    name = "vectorized"

    def __init__(self, wave_size: int = DEFAULT_WAVE_SIZE):
        if wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        self.wave_size = wave_size

    def execute(self, structure: ConcurrentMap,
                batch: OpBatch) -> BatchResult:
        ctx = structure.ctx
        results: list[Any] = [None] * len(batch)
        # A structure may bring its own wave planner (ShardedMap plans
        # per shard and zips the plans so every wave touches every
        # shard); the module-level per-key-FIFO planner is the default.
        planner = getattr(structure, "plan_waves", None)
        if planner is not None:
            waves = planner(batch.keys, self.wave_size)
        else:
            waves = plan_waves(batch.keys, self.wave_size)
        # The chunked kinds bring both multi-key kernels (M&C neither).
        can_vector = structure.chunked
        m = structure.metrics
        spans = m.spans
        n_waves = 0
        gen_ops = 0
        for wave in waves:
            idx = np.asarray(wave, dtype=np.int64)
            if idx.size == 0:
                continue
            n_waves += 1
            wave_start = spans.clock if spans is not None else 0
            rest = idx
            hints: dict[int, tuple] = {}
            if can_vector:
                # Reads first: the wave's updates have not started, so
                # the quiescent-memory kernels answer every contains and
                # precompute every update's traversal in lock-step.
                contains_mask = batch.ops[idx] == OP_CONTAINS
                if contains_mask.any():
                    cidx = idx[contains_mask]
                    found = structure.vector_contains(batch.keys[cidx],
                                                      tracer=ctx.tracer)
                    for i, hit in zip(cidx.tolist(), found.tolist()):
                        results[i] = bool(hit)
                    rest = idx[~contains_mask]
                if rest.size:
                    # The vectorized critical sections: conflict-free
                    # update groups execute batched; the rest get their
                    # precomputed traversal as a generator hint.
                    ures, handled, ufound, upaths = \
                        structure.vector_update_wave(
                            batch.ops[rest], batch.keys[rest],
                            batch.values[rest], tracer=ctx.tracer)
                    for row, i in enumerate(rest.tolist()):
                        if handled[row]:
                            results[i] = bool(ures[row])
                        else:
                            hints[i] = (bool(ufound[row]),
                                        upaths[row].tolist())
                    rest = rest[~handled]
            if rest.size:
                gen_ops += int(rest.size)
                tasks = [(i, self._op_gen(structure, batch, i, hints))
                         for i in rest.tolist()]
                labels = None
                if spans is not None:
                    labels = {i: f"{OP_NAMES[int(batch.ops[i])]}"
                                 f"({int(batch.keys[i])})"
                              for i in rest.tolist()}
                for slot, value in run_wave_generators(
                        tasks, ctx.mem, ctx.tracer,
                        spans=spans, span_labels=labels).items():
                    results[slot] = value
            if spans is not None and spans.clock == wave_start:
                # Fully batched wave: no generator ticks ran, but the
                # wave still occupies one lock-step round.
                spans.advance(1)
            account_wave(m, n_waves - 1, wave_start, int(idx.size))
        return BatchResult(results=results, backend=self.name,
                           waves=n_waves, gen_ops=gen_ops)

    @staticmethod
    def _op_gen(structure: ConcurrentMap, batch: OpBatch, i: int,
                hints: dict) -> Generator:
        """One update op's generator, with its precomputed search hint
        when the vectorized update wave left one."""
        op = int(batch.ops[i])
        key = int(batch.keys[i])
        hint = hints.get(i)
        if hint is None:
            return op_generator(structure, op, key, int(batch.values[i]))
        if op == OP_INSERT:
            return structure.insert_gen(key, int(batch.values[i]),
                                        hint=hint)
        return structure.delete_gen(key, hint=hint)
