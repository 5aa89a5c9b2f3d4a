"""Reference oracle: the event executor and interleaving loop as they
were before hot-event dispatch.

``InterleavingScheduler.run`` performs chunk reads, word reads and
compute slots in its own loop, dispatches on ``type(event) is``, and
hands the rest to a reordered ``execute_event``; the tracer's
``access_words`` goes through ``L2Cache.access_many`` and scattered
reads through ``access_gather``.  This module keeps the versions they
replaced -- an ``isinstance`` chain, a per-line ``L2Cache.access`` loop,
per-address TLB steps and the warp executor's own scattered-load
accounting -- so the differential can assert that both make the same
accesses in the same order.  Only tests import it.
"""

from __future__ import annotations

import numpy as np

from repro.gpu import events as ev
from repro.gpu.memory import WORD_BYTES
from repro.gpu.scheduler import DeviceFault, TaskResult


def _tlb_access(t, addr: int) -> None:
    page = addr // t.tlb_page_words
    tlb = t._tlb
    if page in tlb:
        del tlb[page]
        tlb[page] = None
        return
    t.stats.tlb_misses += 1
    if len(tlb) >= t.tlb_entries:
        tlb.pop(next(iter(tlb)))
    tlb[page] = None


def access_words(t, addr, n_words, *, coalesced, atomic=False) -> int:
    _tlb_access(t, addr)
    ntrans = 0
    for line in t.lines_of(addr, n_words):
        hit = t.l2.access(line)
        ntrans += 1
        if hit:
            t.stats.l2_hit_transactions += 1
            if coalesced:
                t.stats.l2_coalesced += 1
            else:
                t.stats.l2_scattered += 1
        else:
            t.stats.dram_transactions += 1
            if coalesced:
                t.stats.dram_coalesced += 1
            else:
                t.stats.dram_scattered += 1
    t.stats.transactions += ntrans
    t.stats.bytes_requested += n_words * WORD_BYTES
    if coalesced:
        t.stats.coalesced_accesses += 1
    else:
        t.stats.scalar_accesses += 1
    if atomic:
        t.stats.atomic_ops += 1
    return ntrans


def warp_loads(t, addrs) -> int:
    """``WarpExecutor._execute_loads``' tracer accounting for one group
    of scalar loads: lines in first-occurrence order.  Returns the
    number of transactions."""
    lines: dict[int, None] = {}
    for a in addrs:
        lines[a // t.words_per_line] = None
        _tlb_access(t, a)
    for line in lines:
        hit = t.l2.access(line)
        t.stats.transactions += 1
        if hit:
            t.stats.l2_hit_transactions += 1
            t.stats.l2_scattered += 1
        else:
            t.stats.dram_transactions += 1
            t.stats.dram_scattered += 1
    t.stats.bytes_requested += len(addrs) * 8
    t.stats.scalar_accesses += 1
    t.record_compute(1)
    return len(lines)


def execute_event(event, mem, tracer):
    t = tracer
    if isinstance(event, ev.ChunkRead):
        if t:
            access_words(t, event.addr, event.n, coalesced=True)
            t.record_compute(1)
        return mem.read_range(event.addr, event.n)
    if isinstance(event, ev.ChunkWrite):
        vals = np.asarray(event.values, dtype=np.uint64)
        if t:
            access_words(t, event.addr, len(vals), coalesced=True)
            t.record_compute(1)
        mem.write_range(event.addr, vals)
        return None
    if isinstance(event, ev.WordRead):
        if t:
            access_words(t, event.addr, 1, coalesced=False)
            t.record_compute(1)
        return mem.read_word(event.addr)
    if isinstance(event, ev.WordWrite):
        if t:
            access_words(t, event.addr, 1, coalesced=False)
            t.record_compute(1)
        mem.write_word(event.addr, event.value)
        return None
    if isinstance(event, ev.WordCAS):
        if t:
            access_words(t, event.addr, 1, coalesced=False, atomic=True)
            t.record_compute(1)
        return mem.cas_word(event.addr, event.expected, event.new)
    if isinstance(event, ev.AtomicAdd):
        if t:
            access_words(t, event.addr, 1, coalesced=False, atomic=True)
            t.record_compute(1)
        return mem.atomic_add(event.addr, event.delta)
    if isinstance(event, ev.AtomicExch):
        if t:
            access_words(t, event.addr, 1, coalesced=False, atomic=True)
            t.record_compute(1)
        return mem.atomic_exch(event.addr, event.value)
    if isinstance(event, ev.Compute):
        if t:
            t.record_compute(event.amount, divergent=event.divergent)
        return None
    if isinstance(event, ev.SpillAccess):
        if t:
            t.record_spill(event.count)
        return None
    if isinstance(event, ev.GatherRead):
        addrs = event.addrs
        if t:
            lines = {a // t.words_per_line for a in addrs}
            for a in addrs:
                _tlb_access(t, a)
            for line in sorted(lines):
                hit = t.l2.access(line)
                t.stats.transactions += 1
                if hit:
                    t.stats.l2_hit_transactions += 1
                    t.stats.l2_scattered += 1
                else:
                    t.stats.dram_transactions += 1
                    t.stats.dram_scattered += 1
            t.stats.bytes_requested += len(addrs) * 8
            t.stats.scalar_accesses += 1
            t.record_compute(1)
        return [mem.read_word(a) for a in addrs]
    raise DeviceFault(f"unknown event {event!r}")


def run(gens, mem, tracer, seed=None, max_steps=50_000_000):
    """The hook-free interleaving loop over ``gens``; returns
    ``TaskResult``s ordered by task id."""
    rng = np.random.default_rng(seed) if seed is not None else None
    tasks = [{"id": i, "gen": g, "pending": None, "started": False,
              "steps": 0, "start": -1} for i, g in enumerate(gens)]
    results = {}
    live = list(tasks)
    total_steps = 0
    while live:
        order = list(range(len(live)))
        if rng is not None:
            rng.shuffle(order)
        finished = []
        for idx in order:
            task = live[idx]
            try:
                if not task["started"]:
                    task["started"] = True
                    task["start"] = total_steps
                    event = next(task["gen"])
                else:
                    event = task["gen"].send(task["pending"])
                task["pending"] = execute_event(event, mem, tracer)
                task["steps"] += 1
                total_steps += 1
                if total_steps > max_steps:
                    raise DeviceFault("scheduler exceeded max_steps")
            except StopIteration as stop:
                results[task["id"]] = TaskResult(
                    task["id"], stop.value, task["steps"],
                    start_step=task["start"], end_step=total_steps)
                finished.append(idx)
        for idx in sorted(finished, reverse=True):
            live.pop(idx)
    return [results[k] for k in sorted(results)]
