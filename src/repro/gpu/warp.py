"""Warp-lockstep execution: per-lane programs, SIMT accounting.

The default benchmark accounting charges each M&C operation's accesses
individually (every hop a scattered transaction).  Real warps are more
subtle: 32 lanes execute 32 *different* operations in lockstep, so their
step-*i* accesses issue together — and when several lanes touch the same
cache line (every traversal starts at the head node), the hardware
coalesces them into one transaction, while lanes at different branches
serialize (divergence replay).

:class:`WarpExecutor` models exactly that: it advances up to 32 lane
generators one event-step at a time, groups the step's events by kind,
coalesces same-line memory requests into warp-level transactions,
serializes conflicting atomics, and counts replay groups as divergent
issue slots.  It is used by the warp-lockstep ablation
(:func:`repro.experiments.ablations.warp_lockstep_mc`) to quantify how
much intra-warp coalescing would help a thread-per-op design — and by
tests as an independent execution engine that must preserve semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

from . import events as ev
from .memory import GlobalMemory
from .scheduler import execute_event
from .tracer import TransactionTracer


@dataclass
class WarpStats:
    """Per-warp SIMT accounting (complements the global tracer)."""

    steps: int = 0                   # lockstep issue steps
    divergent_replays: int = 0       # extra groups executed per step
    coalesced_lane_requests: int = 0  # lane requests folded into shared lines
    warp_transactions: int = 0       # line-transactions after coalescing
    atomic_conflicts: int = 0        # same-address atomics in one step

    @property
    def divergence_ratio(self) -> float:
        return self.divergent_replays / self.steps if self.steps else 0.0


@dataclass
class _Lane:
    lane_id: int
    gen: Generator
    pending: Any = None
    started: bool = False
    done: bool = False
    result: Any = None


def _event_group(event: ev.Event) -> str:
    """Lanes whose current events fall in different groups have diverged
    and replay serially."""
    if isinstance(event, (ev.WordRead, ev.ChunkRead, ev.GatherRead)):
        return "load"
    if isinstance(event, (ev.WordWrite, ev.ChunkWrite)):
        return "store"
    if isinstance(event, (ev.WordCAS, ev.AtomicAdd, ev.AtomicExch)):
        return "atomic"
    if isinstance(event, ev.SpillAccess):
        return "spill"
    return "alu"


class WarpExecutor:
    """Run up to ``warp_size`` lane generators in lockstep."""

    def __init__(self, mem: GlobalMemory, tracer: TransactionTracer | None,
                 warp_size: int = 32):
        if warp_size < 1 or warp_size > 32:
            raise ValueError("warp size must be in [1, 32]")
        self.mem = mem
        self.tracer = tracer
        self.warp_size = warp_size
        self.stats = WarpStats()

    # ------------------------------------------------------------------
    def run_warp(self, gens: Sequence[Generator]) -> list[Any]:
        """Execute one warp's lanes to completion; returns per-lane
        results in lane order."""
        if len(gens) > self.warp_size:
            raise ValueError("more lanes than the warp size")
        lanes = [_Lane(i, g) for i, g in enumerate(gens)]
        while True:
            active = [l for l in lanes if not l.done]
            if not active:
                break
            # Fetch each active lane's current event.
            current: list[tuple[_Lane, ev.Event]] = []
            for lane in active:
                try:
                    if not lane.started:
                        lane.started = True
                        event = next(lane.gen)
                    else:
                        event = lane.gen.send(lane.pending)
                        lane.pending = None
                    current.append((lane, event))
                except StopIteration as stop:
                    lane.done = True
                    lane.result = stop.value
            if not current:
                continue
            self._execute_step(current)
        return [l.result for l in lanes]

    # ------------------------------------------------------------------
    def _execute_step(self, current: list[tuple[_Lane, ev.Event]]) -> None:
        """One lockstep issue step: group by kind, replay groups
        serially, coalesce loads within a group."""
        groups: dict[str, list[tuple[_Lane, ev.Event]]] = {}
        for lane, event in current:
            groups.setdefault(_event_group(event), []).append((lane, event))

        self.stats.steps += 1
        self.stats.divergent_replays += len(groups) - 1
        if self.tracer and len(groups) > 1:
            self.tracer.record_compute(len(groups) - 1, divergent=True)

        for kind, members in groups.items():
            if kind == "load":
                self._execute_loads(members)
            elif kind == "atomic":
                self._execute_atomics(members)
            else:
                for lane, event in members:
                    lane.pending = execute_event(event, self.mem, self.tracer)

    def _execute_loads(self, members) -> None:
        """Coalesce the group's scalar loads: one transaction per
        distinct line across the warp (the Section 2.2 rule)."""
        t = self.tracer
        scalar = [(lane, e) for lane, e in members
                  if isinstance(e, ev.WordRead)]
        other = [(lane, e) for lane, e in members
                 if not isinstance(e, ev.WordRead)]
        for lane, event in other:  # chunk/gather reads keep their model
            lane.pending = execute_event(event, self.mem, t)
        if not scalar:
            return
        if t is None:
            for lane, event in scalar:
                lane.pending = self.mem.read_word(event.addr)
            return
        ntrans = t.access_gather([event.addr for _lane, event in scalar],
                                 sorted_lines=False)
        t.record_compute(1)
        self.stats.warp_transactions += ntrans
        self.stats.coalesced_lane_requests += len(scalar) - ntrans
        for lane, event in scalar:
            lane.pending = self.mem.read_word(event.addr)

    def _execute_atomics(self, members) -> None:
        """Atomics to the same destination serialize within the warp
        (Section 2.2); execution order is lane order, which is what the
        hardware guarantees least — tests rely only on atomicity."""
        seen: dict[int, int] = {}
        for lane, event in members:
            seen[event.addr] = seen.get(event.addr, 0) + 1
            lane.pending = execute_event(event, self.mem, self.tracer)
        conflicts = sum(c - 1 for c in seen.values() if c > 1)
        if conflicts:
            self.stats.atomic_conflicts += conflicts
            if self.tracer:
                self.tracer.record_atomic_conflicts(conflicts)


def run_in_warps(gens: Sequence[Generator], mem: GlobalMemory,
                 tracer: TransactionTracer | None,
                 warp_size: int = 32) -> tuple[list[Any], WarpStats]:
    """Partition ``gens`` into warps and run each in lockstep; returns
    (results in input order, merged warp stats)."""
    results: list[Any] = []
    total = WarpStats()
    for start in range(0, len(gens), warp_size):
        wx = WarpExecutor(mem, tracer, warp_size)
        results.extend(wx.run_warp(gens[start: start + warp_size]))
        total.steps += wx.stats.steps
        total.divergent_replays += wx.stats.divergent_replays
        total.coalesced_lane_requests += wx.stats.coalesced_lane_requests
        total.warp_transactions += wx.stats.warp_transactions
        total.atomic_conflicts += wx.stats.atomic_conflicts
    return results, total
