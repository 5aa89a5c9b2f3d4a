"""Op-level observability counters.

A :class:`MetricsCollector` is a structure's one counter block:
structured per-phase counters (operations, traversal, locking,
structure maintenance, wave scheduling) that explain *why* a backend is
fast or slow — the per-operation breakdown the paper's quantitative
argument (Sections 5.2–5.4) is built on.  Every event is counted at
exactly one site, on every backend.

Every structure is built with a collector in its ``metrics`` attribute
and keeps one for life; a :class:`~repro.shard.ShardedMap`'s shards
share the map's.  Attaching is plain assignment, which starts a fresh
observation window::

    m = MetricsCollector()
    sl.metrics = m
    make_backend("interleaved").execute(sl, batch)
    print(m.as_dict())

Counting never changes a schedule or a result, so which collector is
attached is observationally free.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .spans import SpanTracer


@dataclass
class MetricsCollector:
    """Per-phase counters of one structure (or one observation window).

    All integer fields are monotonic counters except
    ``max_zombie_chain``, a high-water mark; :meth:`merge`,
    :meth:`reset`, and :meth:`as_dict` derive the field list from the
    dataclass, so a counter added later can never be silently dropped
    (the :class:`~repro.gpu.tracer.TraceStats` merge bug this layer was
    built alongside).  ``spans`` optionally carries a
    :class:`~repro.metrics.spans.SpanTracer`; when present, the engines
    also record per-op / per-wave spans into it.
    """

    # -- operations (core/gfsl.py, core/insert.py, core/delete.py) -----
    inserts: int = 0              # inserts that landed
    deletes: int = 0              # deletes that removed a key
    contains_calls: int = 0

    # -- traversal phase (core/traversal.py, core/vector.py) ------------
    chunk_reads: int = 0          # coalesced team chunk reads
    lateral_steps: int = 0        # next-pointer hops within a level
    down_steps: int = 0           # level descents
    backtrack_steps: int = 0      # Algorithm 4.2 backTrack recoveries
    contains_restarts: int = 0    # lock-free read descents restarted
    update_restarts: int = 0      # update-path descents restarted
    zombie_encounters: int = 0    # frozen chunks hopped over
    max_zombie_chain: int = 0     # longest frozen chain walked (high water)

    # -- locking phase (core/locks.py) ---------------------------------
    lock_acquired: int = 0        # successful lock CAS
    lock_released: int = 0        # unlocks + terminal zombie marks
    lock_cas_failed: int = 0      # lock CAS that lost (incl. chaos fails)
    lock_spins: int = 0           # failed-acquisition loop iterations

    # -- structure maintenance (core/insert.py, core/delete.py) --------
    splits: int = 0
    merges: int = 0
    zombies_unlinked: int = 0
    downptr_updates: int = 0      # upper-level down pointers repaired

    # -- wave scheduling (engine backends) -----------------------------
    waves: int = 0                # scheduling rounds executed
    wave_ops: int = 0             # ops summed over waves (occupancy numerator)

    #: Optional span recorder; not a counter (merge/as_dict skip it).
    spans: SpanTracer | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _counter_fields():
        return [f.name for f in fields(MetricsCollector) if f.type == "int"]

    def merge(self, other: "MetricsCollector") -> None:
        """Add ``other``'s counters into this collector; the high-water
        ``max_zombie_chain`` takes the larger.  Spans are not merged —
        they live on independent step clocks."""
        high = max(self.max_zombie_chain, other.max_zombie_chain)
        for name in self._counter_fields():
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_zombie_chain = high

    def reset(self) -> None:
        for name in self._counter_fields():
            setattr(self, name, 0)

    @property
    def restarts(self) -> int:
        """Full traversal restarts, all flavours."""
        return self.contains_restarts + self.update_restarts

    def as_dict(self) -> dict[str, int]:
        """All counters plus the derived ``restarts`` as a plain dict
        (the BENCH_*.json ``counters`` block)."""
        out = {name: getattr(self, name) for name in self._counter_fields()}
        out["restarts"] = self.restarts
        return out

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Counters normalized per operation (0.0 for an empty batch)."""
        d = max(1, int(n_ops))
        return {name: value / d for name, value in self.as_dict().items()}

    @property
    def wave_occupancy(self) -> float:
        """Mean in-flight operations per scheduling wave."""
        return self.wave_ops / self.waves if self.waves else 0.0
