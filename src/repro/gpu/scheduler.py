"""Execution engines for simulated kernels.

Two engines share one event vocabulary (:mod:`repro.gpu.events`):

* :func:`run_to_completion` — the *sequential* trampoline: drains one
  team-operation generator.  Used when operations are issued one at a
  time (throughput experiments — the cost accounting is identical, only
  the interleaving differs).

* :class:`InterleavingScheduler` — the *concurrent* engine: keeps many
  team generators in flight and advances them one event at a time in a
  deterministic (optionally seeded-shuffled) round-robin.  This is how
  the simulator exposes the algorithm to real races: a context switch
  can happen between any two memory accesses, the same granularity at
  which warps interleave on an SM.  Spin-locks make progress because
  round-robin is fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from . import events as ev
from .memory import GlobalMemory
from .tracer import TransactionTracer


class DeviceFault(RuntimeError):
    """An event the executor does not understand, or an illegal access."""


def execute_event(event: ev.Event, mem: GlobalMemory,
                  tracer: TransactionTracer | None) -> Any:
    """Perform one event against memory, feeding the tracer; returns the
    value to ``send`` back into the generator.

    Events are dispatched on their exact type (the vocabulary has no
    subclasses), most frequent first: chunk reads, word reads and
    compute slots, then the writes and atomics."""
    t = tracer
    kind = type(event)
    if kind is ev.ChunkRead:
        if t is not None:
            t.access_words(event.addr, event.n, coalesced=True)
            t.record_compute(1)
        return mem.read_range(event.addr, event.n)
    if kind is ev.WordRead:
        if t is not None:
            t.access_words(event.addr, 1, coalesced=False)
            t.record_compute(1)
        return mem.read_word(event.addr)
    if kind is ev.Compute:
        if t is not None:
            t.record_compute(event.amount, divergent=event.divergent)
        return None
    if kind is ev.WordCAS:
        if t is not None:
            t.access_words(event.addr, 1, coalesced=False, atomic=True)
            t.record_compute(1)
        return mem.cas_word(event.addr, event.expected, event.new)
    if kind is ev.WordWrite:
        if t is not None:
            t.access_words(event.addr, 1, coalesced=False)
            t.record_compute(1)
        mem.write_word(event.addr, event.value)
        return None
    if kind is ev.ChunkWrite:
        vals = np.asarray(event.values, dtype=np.uint64)
        if t is not None:
            t.access_words(event.addr, len(vals), coalesced=True)
            t.record_compute(1)
        mem.write_range(event.addr, vals)
        return None
    if kind is ev.AtomicAdd:
        if t is not None:
            t.access_words(event.addr, 1, coalesced=False, atomic=True)
            t.record_compute(1)
        return mem.atomic_add(event.addr, event.delta)
    if kind is ev.AtomicExch:
        if t is not None:
            t.access_words(event.addr, 1, coalesced=False, atomic=True)
            t.record_compute(1)
        return mem.atomic_exch(event.addr, event.value)
    if kind is ev.GatherRead:
        addrs = event.addrs
        if t is not None:
            t.access_gather(addrs, sorted_lines=True)
            t.record_compute(1)
        return [mem.read_word(a) for a in addrs]
    if kind is ev.SpillAccess:
        if t is not None:
            t.record_spill(event.count)
        return None
    raise DeviceFault(f"unknown event {event!r}")


def run_to_completion(gen: Generator, mem: GlobalMemory,
                      tracer: TransactionTracer | None = None) -> Any:
    """Drain one device-function generator; returns its return value."""
    try:
        event = next(gen)
        while True:
            result = execute_event(event, mem, tracer)
            event = gen.send(result)
    except StopIteration as stop:
        return stop.value


@dataclass
class TaskResult:
    """Outcome of one task run under the interleaving scheduler.

    ``start_step``/``end_step`` are global scheduler step stamps for the
    task's first and last event — the invocation/response interval used
    by the linearizability checker."""
    task_id: int
    value: Any
    steps: int
    start_step: int = -1
    end_step: int = -1


@dataclass
class _Task:
    task_id: int
    gen: Generator
    pending: Any = None       # result waiting to be sent in
    started: bool = False
    steps: int = 0
    start_step: int = -1


class InterleavingScheduler:
    """Deterministic fine-grained interleaver for concurrent teams.

    ``spawn`` registers team-operation generators; ``run`` advances them
    one event per turn until all complete.  The schedule is round-robin;
    with a seeded RNG, each round's visit order is shuffled, giving a
    reproducible but adversarial exploration of interleavings (useful
    for stress tests).

    ``max_steps`` guards against livelock bugs: exceeding it raises.

    ``injector``/``watchdog`` are the chaos hooks (duck-typed; see
    :mod:`repro.chaos`): the injector may preempt a task's turn for a
    round (``skip_turn``) and is told which task is running
    (``current_task``) so lock ownership can be attributed; the watchdog
    observes every advance and raises a diagnosed
    ``LivelockDetected`` instead of letting a stuck schedule spin.
    With both None (the default) scheduling is bit-identical to the
    unhooked code.

    ``spans`` optionally takes a :class:`~repro.metrics.spans.SpanTracer`:
    each completed task is recorded as one span on the tracer's shared
    step clock (labelled via ``span_labels``, a ``task_id -> str``
    mapping), and the clock advances by this run's total steps so
    successive scheduler runs (waves) lay out on one timeline.
    """

    def __init__(self, mem: GlobalMemory, tracer: TransactionTracer | None = None,
                 seed: int | None = None, max_steps: int = 50_000_000,
                 injector=None, watchdog=None, spans=None, span_labels=None):
        self.mem = mem
        self.tracer = tracer
        self.rng = np.random.default_rng(seed) if seed is not None else None
        self.max_steps = max_steps
        self.injector = injector
        self.watchdog = watchdog
        self.spans = spans
        self.span_labels = span_labels or {}
        self._tasks: list[_Task] = []
        self._next_id = 0

    def spawn(self, gen: Generator) -> int:
        tid = self._next_id
        self._next_id += 1
        self._tasks.append(_Task(task_id=tid, gen=gen))
        return tid

    def run(self) -> list[TaskResult]:
        """Run all spawned tasks to completion; returns results ordered
        by task id.

        Chunk reads, word reads and compute slots (nearly every event of
        a traversal) are performed here; the rest go to
        :func:`execute_event`.  Both paths make the same accesses in the
        same order."""
        results: dict[int, TaskResult] = {}
        live = list(self._tasks)
        self._tasks = []
        total_steps = 0
        injector, watchdog, spans = self.injector, self.watchdog, self.spans
        mem, tracer, rng = self.mem, self.tracer, self.rng
        max_steps = self.max_steps
        read_range, read_word = mem.read_range, mem.read_word
        # Looked up on the class at run time, so a wrapper installed on
        # the class (a timing probe) sees every access.
        access = type(tracer).access_words if tracer is not None else None
        ChunkRead, WordRead, Compute = ev.ChunkRead, ev.WordRead, ev.Compute
        span_base = spans.clock if spans is not None else 0
        while live:
            order = list(range(len(live)))
            if rng is not None:
                rng.shuffle(order)
            finished: list[int] = []
            for idx in order:
                task = live[idx]
                if injector is not None:
                    if injector.skip_turn():
                        continue  # chaos point preempt_scheduler
                    injector.current_task = task.task_id
                try:
                    if task.started:
                        event = task.gen.send(task.pending)
                    else:
                        task.started = True
                        task.start_step = total_steps
                        event = next(task.gen)
                    kind = type(event)
                    if kind is ChunkRead:
                        if tracer is not None:
                            access(tracer, event.addr, event.n,
                                   coalesced=True)
                            tracer.stats.instructions += 1
                        task.pending = read_range(event.addr, event.n)
                    elif kind is WordRead:
                        if tracer is not None:
                            access(tracer, event.addr, 1, coalesced=False)
                            tracer.stats.instructions += 1
                        task.pending = read_word(event.addr)
                    elif kind is Compute:
                        if tracer is not None:
                            tracer.record_compute(event.amount,
                                                  event.divergent)
                        task.pending = None
                    else:
                        task.pending = execute_event(event, mem, tracer)
                    task.steps += 1
                    total_steps += 1
                    if watchdog is not None:
                        watchdog.observe(task.task_id, task.steps,
                                         total_steps)
                    if total_steps > max_steps:
                        raise DeviceFault(
                            "scheduler exceeded max_steps — possible livelock"
                        )
                except StopIteration as stop:
                    results[task.task_id] = TaskResult(
                        task.task_id, stop.value, task.steps,
                        start_step=task.start_step, end_step=total_steps)
                    finished.append(idx)
                    if watchdog is not None:
                        watchdog.finished(task.task_id)
                    if spans is not None:
                        spans.add(
                            self.span_labels.get(task.task_id,
                                                 f"task {task.task_id}"),
                            span_base + max(task.start_step, 0),
                            total_steps - max(task.start_step, 0),
                            track=task.task_id, steps=task.steps)
            for idx in sorted(finished, reverse=True):
                live.pop(idx)
        if spans is not None:
            spans.advance(total_steps)
        return [results[k] for k in sorted(results)]
