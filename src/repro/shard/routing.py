"""Versioned key→shard routing: the sharded map's only key→shard mapping.

A :class:`RoutingTable` maps every key to exactly one shard id in
``[0, n_shards)``, deterministically, which preserves per-key operation
order across the batch router.  Each **generation** is an immutable
``(boundaries, owners)`` table: ``boundaries[i]`` is the first key of
segment ``i`` and ``owners[i]`` the shard serving it, searched like the
sorted keys of a GFSL chunk.  :meth:`publish_move` creates generation
``g+1`` without touching ``g``, and lookups optionally carry a
generation, so a batch split under plan ``g`` keeps routing against
``g`` even if a migration publishes ``g+1`` mid-flight (see
:meth:`~repro.shard.sharded.ShardedMap.split_batch`).

Generation 0 comes from a constructor: :meth:`~RoutingTable.range`
(linspace key ranges, Jiffy-style: dense per-shard key spaces,
skew-prone), :meth:`~RoutingTable.from_sample` (quantile boundaries
of a key sample) or :meth:`~RoutingTable.hash` (splitmix64 mix: any
distribution balances, ordering is lost).  A hash table has no
contiguous key range to donate, so it stays a static generation 0:
:meth:`~RoutingTable.segments` and :meth:`~RoutingTable.publish_move`
raise for it.
"""

from __future__ import annotations

import numpy as np


class RoutingTable:
    """Generation-numbered boundary maps (or a static hash mapping)."""

    def __init__(self, n_shards: int, boundaries=None, *,
                 hash_seed: int | None = None):
        """Generation 0: ``boundaries`` (``n_shards + 1`` sorted keys
        over ``[1, top + 1)``, shard ``i`` owning segment ``i``) or the
        hash mapping seeded by ``hash_seed``."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = int(n_shards)
        self._hash_seed = hash_seed
        #: Whether the mapping has a boundary form (and so can migrate).
        self.range_expressible = hash_seed is None
        #: Current (latest published) generation number.
        self.generation = 0
        # generation -> (boundaries int64[S], owners int64[S]).
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Top key of the sized key space, reported as the last
        # segment's inclusive end (keys above it still route there).
        self._top = 0
        if boundaries is not None:
            bounds = np.asarray(boundaries, dtype=np.int64)
            self._top = int(bounds[-1]) - 1
            self._tables[0] = (bounds[:-1],
                               np.arange(self.n_shards, dtype=np.int64))
        #: One record per published move (the migration-event material).
        self.history: list[dict] = []

    # -- constructors ----------------------------------------------------
    @classmethod
    def range(cls, n_shards: int, key_range: int) -> "RoutingTable":
        """Shard ``s`` owns keys in ``[boundaries[s], boundaries[s+1])``
        over ``[1, key_range]``.  Keys outside the range route to the
        first or last shard (the range is a sizing hint, not a hard
        bound — routing must stay total)."""
        if key_range < n_shards:
            raise ValueError("key_range must cover at least one key per "
                             "shard")
        # n_shards+1 boundaries over [1, key_range+1); linspace keeps the
        # buckets within one key of each other.
        return cls(n_shards, np.linspace(1, key_range + 1, n_shards + 1
                                         ).astype(np.int64))

    @classmethod
    def from_sample(cls, n_shards: int, key_range: int,
                    sample) -> "RoutingTable":
        """Quantile boundaries from a key sample, so each shard sees a
        roughly equal share of the *sampled traffic* instead of the key
        space — the linspace split is badly skewed when the workload is
        (e.g.) front-loaded zipf and the hot mass all lands in shard 0.

        Interior boundaries are the sample's ``i/n_shards`` quantiles
        (floored to int; they are non-decreasing, and duplicate quantiles
        under extreme skew leave some shards with an empty slice, which
        routing handles fine).  The outer boundaries stay ``1`` and
        ``key_range + 1``.  An empty sample gives the :meth:`range`
        table."""
        table = cls.range(n_shards, key_range)
        sample = np.asarray(sample, dtype=np.int64)
        if sample.size == 0:
            return table         # nothing to learn from: keep linspace
        qs = np.linspace(0.0, 1.0, n_shards + 1)[1:-1]
        interior = np.floor(np.quantile(sample, qs)).astype(np.int64) + 1
        bounds = np.empty(n_shards + 1, dtype=np.int64)
        bounds[0] = 1
        bounds[-1] = key_range + 1
        bounds[1:-1] = np.clip(interior, 1, key_range + 1)
        return cls(n_shards, bounds)

    @classmethod
    def hash(cls, n_shards: int, seed: int = 0) -> "RoutingTable":
        """Splitmix64-mixed key modulo the shard count."""
        return cls(n_shards, hash_seed=int(seed))

    # -- lookups ---------------------------------------------------------
    def shard_of_array(self, keys, generation: int | None = None
                       ) -> np.ndarray:
        """Vectorized key→shard lookup under one generation's plan
        (default: the current generation)."""
        keys = np.asarray(keys, dtype=np.int64)
        if not self.range_expressible:
            # splitmix64 finalizer, vectorized over uint64.
            z = keys.astype(np.uint64)
            with np.errstate(over="ignore"):
                z = z + np.uint64(0x9E3779B97F4A7C15 + self._hash_seed)
                z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
                z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
                z = z ^ (z >> np.uint64(31))
            return (z % np.uint64(self.n_shards)).astype(np.int64)
        boundaries, owners = self._tables[
            self.generation if generation is None else int(generation)]
        # Keys below boundaries[1] (including those below the first
        # boundary) land in segment 0, keys past the last in the last.
        return owners[np.searchsorted(boundaries[1:], keys, side="right")]

    def shard_of(self, key: int, generation: int | None = None) -> int:
        return int(self.shard_of_array(
            np.asarray([key], dtype=np.int64), generation)[0])

    # -- table materialisation -------------------------------------------
    def _materialize(self, generation: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(boundaries, owners)`` arrays of one generation; a hash
        mapping has no segment form."""
        if not self.range_expressible:
            raise ValueError(
                "hash routing is not range-expressible: it has no "
                "boundary form to migrate")
        return self._tables[
            self.generation if generation is None else int(generation)]

    def segments(self, sid: int | None = None,
                 generation: int | None = None) -> list[tuple[int, int, int]]:
        """``(lo, hi_inclusive, owner)`` triples of one generation's
        plan, in key order (``hi`` of the last segment is unbounded and
        reported as the table's top key, or 2^32-2 once a move has cut
        past it).  ``sid`` filters to one shard's owned segments."""
        bounds, owners = self._materialize(generation)
        top = self._top
        if top < int(bounds[-1]):
            top = (1 << 32) - 2
        out = []
        for i in range(len(bounds)):
            hi = int(bounds[i + 1]) - 1 if i + 1 < len(bounds) else top
            if sid is None or int(owners[i]) == sid:
                out.append((int(bounds[i]), hi, int(owners[i])))
        return out

    # -- publishing ------------------------------------------------------
    def publish_move(self, lo: int, hi: int, dst: int,
                     step: int = 0) -> int:
        """Publish a new generation in which ``[lo, hi]`` (inclusive) is
        owned by shard ``dst``; returns the new generation number.
        Splits the enclosing segments at ``lo`` and ``hi+1``, rewrites
        the owners inside, and coalesces equal-owner neighbours so the
        table stays small across many migrations."""
        if not 0 <= dst < self.n_shards:
            raise ValueError(f"dst shard {dst} out of range")
        if lo > hi:
            raise ValueError("empty key range")
        bounds, owners = self._materialize()
        bounds = list(int(b) for b in bounds)
        owners = list(int(o) for o in owners)
        src_owners = set()
        for cut in (int(lo), int(hi) + 1):
            if cut <= bounds[0]:
                continue
            i = int(np.searchsorted(bounds, cut, side="right")) - 1
            if bounds[i] != cut:
                bounds.insert(i + 1, cut)
                owners.insert(i + 1, owners[i])
        # After the cuts every segment is entirely inside or outside
        # [lo, hi]: inside exactly when it starts within the range.
        for i, b in enumerate(bounds):
            if lo <= b <= hi:
                src_owners.add(owners[i])
                owners[i] = int(dst)
        # Coalesce equal-owner neighbours.
        cb, co = [bounds[0]], [owners[0]]
        for b, o in zip(bounds[1:], owners[1:]):
            if o == co[-1]:
                continue
            cb.append(b)
            co.append(o)
        self.generation += 1
        self._tables[self.generation] = (np.asarray(cb, dtype=np.int64),
                                         np.asarray(co, dtype=np.int64))
        self.history.append({
            "generation": self.generation, "lo": int(lo), "hi": int(hi),
            "dst": int(dst),
            "src": sorted(s for s in src_owners if s != dst),
            "step": int(step),
        })
        return self.generation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "range" if self.range_expressible else "hash"
        return (f"RoutingTable({kind}, gen={self.generation}, "
                f"n_shards={self.n_shards})")
