"""The partitioned multi-instance map (:class:`ShardedMap`).

A ``ShardedMap`` owns S structure instances (GFSL or the M&C baseline)
co-located on **one** shared :class:`~repro.gpu.kernel.GPUContext`:
each shard's :class:`~repro.core.pool.StructureLayout` sits at its own
reserved base offset in the same simulated device memory, so all
shards share the L2, the tracer, and the cost model — exactly the
deployment shape of a partitioned in-memory store on a single
accelerator.

It satisfies the engine's :class:`~repro.engine.ConcurrentMap`
protocol (generator factories route each op to its owning shard, so
every backend executes it unmodified) and additionally exposes the
engine's shard-aware hooks:

* :meth:`batch_order` — the interleaved backend's replay order,
  round-robined across shards so each wave carries every shard's ops,
* :meth:`plan_waves` — the vectorized backend's wave plan, built
  per-shard (preserving per-key FIFO) and zipped by wave index,
* :meth:`vector_contains` / :meth:`vector_search` /
  :meth:`vector_update_wave` — multi-key kernels fused across shards
  into one lock-step dispatch over the merged index space.

Which of these a map can run is its ``chunked`` flag, the registry's
one capability signal: on M&C shards the kernels, :meth:`begin_snapshot`
and the ordered walks raise :class:`TypeError` naming the kind.

Observability: the map and its shards share one
:class:`~repro.metrics.counters.MetricsCollector`; assigning
``map.metrics`` points every shard at the new collector, exactly as
assigning ``map.chaos`` installs one fault injector on every shard.
"""

from __future__ import annotations

import math
from typing import Generator

import numpy as np

from ..engine.batch import OP_INSERT, OpBatch
from ..engine.interface import (STRUCTURES, _expected_keys, region_words,
                                structure_spec)
from ..gpu.kernel import GPUContext
from ..metrics.counters import MetricsCollector
from .router import merge_waves, round_robin_order, split_indices
from .routing import RoutingTable

_RESERVE_ALIGN = 16


class ShardedMap:
    """S co-located structure instances behind one ConcurrentMap."""

    def __init__(self, shards: list, routing: RoutingTable,
                 ctx: GPUContext, kind: str):
        if len(shards) != routing.n_shards:
            raise ValueError("routing/shard-count mismatch")
        self.shards = list(shards)
        #: Versioned key→shard routing (migrations publish new
        #: generations without touching old ones — DESIGN.md §16).
        self.routing = routing
        # Generation latched at batch-split time so every dispatch of
        # one batch routes against the plan it was split under, even if
        # a migration publishes a newer generation mid-flight.
        self._route_gen: int | None = None
        # Active delta-capture window (lo, hi, ops list) — set by the
        # migration executor while it copies [lo, hi] from a snapshot.
        self._capture: tuple[int, int, list] | None = None
        self.ctx = ctx
        self.kind = kind
        self._chaos = None
        self.metrics = MetricsCollector()
        #: Per-shard op counts of the most recently routed batch.
        self.last_shard_ops: list[int] | None = None
        #: The registry's flag: GFSL-family shards (see ConcurrentMap).
        self.chunked = structure_spec(kind).chunked

    # -- routing ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def geo(self):
        """Chunk geometry of the underlying instances (None for M&C)."""
        return self.shards[0].geo if self.chunked else None

    def _need_chunks(self, what: str) -> None:
        if not self.chunked:
            raise TypeError(f"{self.kind}@{self.n_shards} has no {what}: "
                            f"{self.kind!r} shards have no chunks")

    def shard_of(self, key: int) -> int:
        return self.routing.shard_of(key)

    def shard_for(self, key: int):
        """The instance owning ``key`` under the current generation."""
        return self.shards[self.routing.shard_of(key)]

    # -- migration delta capture (DESIGN.md §16) -------------------------
    def begin_delta_capture(self, lo: int, hi: int) -> None:
        """Start recording mutations to keys in ``[lo, hi]`` — the delta
        that accumulates while a migration copies the range from a
        pinned snapshot.  Zero-cost when no capture is active."""
        if self._capture is not None:
            raise RuntimeError("a delta capture is already active")
        self._capture = (int(lo), int(hi), [])

    def end_delta_capture(self) -> list[tuple[str, int, int]]:
        """Stop recording; returns the captured ``(op, key, value)``
        mutations in arrival order."""
        if self._capture is None:
            raise RuntimeError("no delta capture active")
        _, _, ops = self._capture
        self._capture = None
        return ops

    def _log_mutation(self, op: str, key: int, value: int = 0) -> None:
        if self._capture is not None:
            lo, hi, ops = self._capture
            if lo <= key <= hi:
                ops.append((op, int(key), int(value)))

    # -- ConcurrentMap protocol ------------------------------------------
    def contains_gen(self, key: int) -> Generator:
        return self.shard_for(key).contains_gen(key)

    # Build the shard's generator first: a refused op is never logged.
    def insert_gen(self, key: int, value: int = 0, hint=None) -> Generator:
        shard = self.shard_for(key)
        gen = (shard.insert_gen(key, value) if hint is None
               else shard.insert_gen(key, value, hint=hint))
        self._log_mutation("insert", key, value)
        return gen

    def delete_gen(self, key: int, hint=None) -> Generator:
        shard = self.shard_for(key)
        gen = (shard.delete_gen(key) if hint is None
               else shard.delete_gen(key, hint=hint))
        self._log_mutation("delete", key)
        return gen

    def keys(self) -> list:
        return sorted(k for s in self.shards for k in s.keys())

    def items(self) -> list:
        return sorted(kv for s in self.shards for kv in s.items())

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    # -- synchronous wrappers --------------------------------------------
    def contains(self, key: int) -> bool:
        return self.ctx.run(self.contains_gen(key))

    def insert(self, key: int, value: int = 0) -> bool:
        return self.ctx.run(self.insert_gen(key, value))

    def delete(self, key: int) -> bool:
        return self.ctx.run(self.delete_gen(key))

    def get(self, key: int):
        self._need_chunks("get")
        return self.ctx.run(self.shard_for(key).get_gen(key))

    # -- cross-shard queries (host-side merges; TypeError on M&C) --------
    def min_key(self):
        self._need_chunks("min_key")
        lows = [m for m in (s.min_key() for s in self.shards)
                if m is not None]
        return min(lows) if lows else None

    def max_key(self):
        self._need_chunks("max_key")
        highs = [m for m in (s.max_key() for s in self.shards)
                 if m is not None]
        return max(highs) if highs else None

    def range_query(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Inclusive ordered window read on **one** cross-shard epoch
        pin: a single consistent cut (every shard is still walked)."""
        self._need_chunks("range_query")
        with self.begin_snapshot() as snap:
            return snap.range_query(lo, hi, tracer=self.ctx.tracer)

    # -- cross-shard snapshots (DESIGN.md §13) ---------------------------
    def begin_snapshot(self) -> "ShardedSnapshot":
        """Pin once for every shard: one shared context, hence one pin
        is a consistent cut over all of them."""
        self._need_chunks("begin_snapshot")
        return ShardedSnapshot(self)

    # M&C has no zombies and nothing to compact: 0 is the answer.
    def zombie_count(self) -> int:
        if not self.chunked:
            return 0
        return sum(s.zombie_count() for s in self.shards)

    def compact(self) -> int:
        if not self.chunked:
            return 0
        return sum(s.compact() for s in self.shards)

    # -- engine shard-aware hooks -----------------------------------------
    def _split_keys(self, keys) -> list[np.ndarray]:
        """Stable per-shard index arrays for ``keys`` under the current
        generation, which it latches: every vector dispatch of this
        batch routes against the same plan the split used, even if a
        migration publishes a newer generation before the batch drains.
        Also refreshes :attr:`last_shard_ops` for balance reporting."""
        self._route_gen = self.routing.generation
        per_shard = split_indices(
            self.routing.shard_of_array(keys, self._route_gen),
            self.n_shards)
        self.last_shard_ops = [int(ix.size) for ix in per_shard]
        return per_shard

    def split_batch(self, batch: OpBatch) -> list[np.ndarray]:
        """Stable per-shard op-id arrays for ``batch`` (see
        :meth:`_split_keys`)."""
        return self._split_keys(batch.keys)

    def batch_order(self, batch: OpBatch) -> np.ndarray:
        """Interleaved-backend replay order: op ids dealt round-robin
        across shards, so every wave advances every shard."""
        return round_robin_order(self.split_batch(batch))

    def plan_waves(self, keys, wave_size: int) -> list[list[int]]:
        """Vectorized-backend wave plan: per-shard per-key-FIFO planning
        (each shard gets an equal slice of the wave budget), zipped into
        global waves by wave index.

        Raises :class:`ValueError` when ``wave_size`` is below the shard
        count: every shard needs a budget of at least one op, and
        rounding that up would plan waves larger than ``wave_size``."""
        from ..engine.vectorized import plan_waves as plan
        shard_budget = wave_size // self.n_shards
        if shard_budget < 1:
            raise ValueError(
                f"wave_size {wave_size} is below the shard count "
                f"{self.n_shards}; each shard needs a budget of >= 1")
        keys = np.asarray(keys, dtype=np.int64)
        plans = []
        for ix in self._split_keys(keys):
            ids = ix.tolist()
            plans.append([[ids[j] for j in wave]
                          for wave in plan(keys[ix], shard_budget)])
        return merge_waves(plans)

    # The fused kernels import core.vector at call time, so a wrapper
    # installed on its module attributes sees every dispatch.
    def vector_contains(self, keys, tracer=None) -> np.ndarray:
        # One fused lock-step dispatch over all shards: every shard's ops
        # advance together in the merged index space (the shards share
        # one memory, so only the per-op base offsets differ).
        self._need_chunks("vector_contains")
        from ..core.vector import contains_multi
        keys = np.asarray(keys, dtype=np.int64)
        return contains_multi(self.shards,
                              self.routing.shard_of_array(
                                  keys, self._route_gen),
                              keys, tracer=tracer)

    def vector_search(self, keys, tracer=None):
        self._need_chunks("vector_search")
        from ..core.vector import search_multi
        keys = np.asarray(keys, dtype=np.int64)
        return search_multi(self.shards,
                            self.routing.shard_of_array(
                                keys, self._route_gen),
                            keys, tracer=tracer)

    def vector_update_wave(self, ops, keys, values, tracer=None):
        self._need_chunks("vector_update_wave")
        from ..core.vector import update_wave
        keys = np.asarray(keys, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        out = update_wave(self.shards,
                          self.routing.shard_of_array(
                              keys, self._route_gen),
                          ops, keys, values, tracer=tracer)
        if self._capture is not None:
            # Rows the batched kernel resolved never reach the
            # generator factories, so log their successful mutations
            # here (fallback rows log via insert_gen/delete_gen).
            results, handled, _, _ = out
            for i in np.nonzero(handled & results)[0]:
                if int(ops[i]) == OP_INSERT:
                    self._log_mutation("insert", int(keys[i]),
                                       int(values[i]))
                else:
                    self._log_mutation("delete", int(keys[i]))
        return out

    def execute_batch(self, batch, backend="vectorized", commit="per-op"):
        """:func:`repro.engine.execute_batch` on this structure."""
        from ..engine import execute_batch
        return execute_batch(self, batch, backend, commit)

    # -- shared observability --------------------------------------------
    @property
    def metrics(self) -> MetricsCollector:
        return self._metrics

    @metrics.setter
    def metrics(self, collector: MetricsCollector) -> None:
        self._metrics = collector
        for s in self.shards:
            s.metrics = collector

    @property
    def chaos(self):
        return self._chaos

    @chaos.setter
    def chaos(self, injector) -> None:
        self._chaos = injector
        for s in self.shards:
            s.chaos = injector


class ShardedSnapshot:
    """One consistent cut over every shard of a :class:`ShardedMap`.

    The cross-shard epoch coordinator: all shards live on one shared
    :class:`~repro.gpu.kernel.GPUContext` (by construction, see
    :func:`build_sharded`), hence on one
    :class:`~repro.core.epoch.EpochManager` — so a **single** pin
    freezes every shard at the same instant.  Each shard contributes a
    non-owning :class:`~repro.core.epoch.GFSLSnapshot` view at the
    shared epoch; queries merge the per-shard frozen walks.
    """

    def __init__(self, sharded: ShardedMap):
        self.sharded = sharded
        self._mgr = sharded.ctx.epochs
        # Register every shard's epoch domain *before* pinning so the
        # write barrier covers all regions from the first post-pin
        # mutation (registration is lazy on first use otherwise).
        for s in sharded.shards:
            s.epoch_domain
        self.epoch = self._mgr.pin()
        self.views = [s.snapshot_view(self.epoch) for s in sharded.shards]
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            for v in self.views:
                v.release()          # non-owning: the pin is ours
            self._mgr.unpin(self.epoch)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    # -- merged queries --------------------------------------------------
    def range_query(self, lo: int, hi: int,
                    tracer=None) -> list[tuple[int, int]]:
        """All frozen pairs in ``[lo, hi]`` across every shard, sorted
        — one consistent cut of the whole partitioned key space."""
        out: list[tuple[int, int]] = []
        for v in self.views:
            out.extend(v.range_query(lo, hi, tracer=tracer))
        return sorted(out)

    def items(self, tracer=None) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for v in self.views:
            out.extend(v.items(tracer=tracer))
        return sorted(out)

    def keys(self, tracer=None) -> list[int]:
        return [k for k, _ in self.items(tracer=tracer)]


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

def _resolve_routing(spec, n_shards: int, key_range: int) -> RoutingTable:
    """Generation-0 routing from ``"range"``, ``"hash"`` or a ready
    :class:`RoutingTable` (e.g. :meth:`RoutingTable.from_sample`)."""
    if isinstance(spec, str):
        if spec == "range":
            return RoutingTable.range(n_shards, max(key_range, n_shards))
        if spec == "hash":
            return RoutingTable.hash(n_shards)
        raise ValueError(f"unknown partitioner {spec!r} "
                         "(available: range, hash)")
    if isinstance(spec, RoutingTable):
        if spec.n_shards != n_shards:
            raise ValueError(f"routing table covers {spec.n_shards} "
                             f"shards, map has {n_shards}")
        return spec
    raise TypeError(f"cannot build routing from {spec!r}")


def build_sharded(kind: str, n_shards: int, workload, *,
                  team_size: int = 32, p_chunk: float = 1.0,
                  p_key: float = 0.5, device=None, seed: int = 0,
                  partitioner="range", headroom: float = 1.0) -> ShardedMap:
    """Build a prefilled, warmed ``ShardedMap`` of ``n_shards``
    instances of ``kind`` ("gfsl"/"mc") co-located on one device.

    Sizing is per shard: each instance's pool covers its partition's
    prefill plus the inserts routed to it, the shared context is sized
    to the sum of the aligned regions, and each shard bulk-builds and
    L2-warms its own region through the registry's placement-explicit
    builders.  ``partitioner`` is ``"range"``, ``"hash"`` or a ready
    generation-0 :class:`RoutingTable` of ``n_shards`` shards.

    ``headroom`` over-provisions every shard's pool by that factor —
    required for elastic resharding, where a migration rebuilds a
    destination shard with keys its own partition never budgeted for.
    At the default 1.0 sizing is bit-identical to the static build.
    """
    if kind not in STRUCTURES:
        raise ValueError(f"unknown structure kind {kind!r}")
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1.0")
    routing = _resolve_routing(partitioner, n_shards,
                               int(workload.key_range))

    prefill = np.asarray(workload.prefill, dtype=np.int64)
    ops = np.asarray(workload.ops)
    insert_keys = np.asarray(workload.keys, dtype=np.int64)[ops == OP_INSERT]
    pf_ids = (routing.shard_of_array(prefill) if prefill.size
              else np.zeros(0, dtype=np.int64))
    ins_ids = (routing.shard_of_array(insert_keys) if insert_keys.size
               else np.zeros(0, dtype=np.int64))

    expected = [
        int(math.ceil((int(np.count_nonzero(pf_ids == s))
                       + int(np.count_nonzero(ins_ids == s))) * headroom))
        + 8
        for s in range(n_shards)
    ]
    if n_shards == 1:
        # Byte-identical to the bare builder (the differential contract).
        expected[0] = _expected_keys(workload)
    # Interior regions round up to the reservation alignment; the last
    # one doesn't need tail padding, so a 1-shard build's context is
    # word-for-word the size the bare builder would have allocated.
    sizes = [region_words(kind, e, team_size) for e in expected]
    total_words = sum(-(-w // _RESERVE_ALIGN) * _RESERVE_ALIGN
                      for w in sizes[:-1]) + sizes[-1]
    ctx = GPUContext(total_words, device=device)

    build = structure_spec(kind).build
    shards = [
        build(workload, team_size=team_size, p_chunk=p_chunk, p_key=p_key,
              seed=seed + s, ctx=ctx, prefill=prefill[pf_ids == s],
              expected=expected[s])
        for s in range(n_shards)
    ]
    return ShardedMap(shards, routing, ctx, kind)
