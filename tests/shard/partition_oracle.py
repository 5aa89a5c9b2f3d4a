"""Reference key→shard routing: static partitioners plus a versioned
table whose generation 0 delegates to them.

This is the routing arithmetic the sharded map used before
:class:`repro.shard.RoutingTable` held generation 0 itself: linspace
range boundaries, quantile-sampled boundaries, the splitmix64 hash,
the ``searchsorted - 1`` + ``clip`` segment lookup, and ``segments``
reading the top key off the partitioner.  It is kept only as the
differential oracle for ``test_routing_oracle.py``.
"""

from __future__ import annotations

import numpy as np


class OracleRange:
    """Contiguous key ranges over ``[1, key_range]``."""

    def __init__(self, n_shards: int, key_range: int):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if key_range < n_shards:
            raise ValueError("key_range must cover at least one key per "
                             "shard")
        self.n_shards = n_shards
        self.boundaries = np.linspace(1, key_range + 1, n_shards + 1
                                      ).astype(np.int64)

    @classmethod
    def from_sample(cls, n_shards: int, key_range: int, sample):
        part = cls(n_shards, key_range)
        sample = np.asarray(sample, dtype=np.int64)
        if sample.size == 0:
            return part
        qs = np.linspace(0.0, 1.0, n_shards + 1)[1:-1]
        interior = np.floor(np.quantile(sample, qs)).astype(np.int64) + 1
        bounds = np.empty(n_shards + 1, dtype=np.int64)
        bounds[0] = 1
        bounds[-1] = key_range + 1
        bounds[1:-1] = np.clip(interior, 1, key_range + 1)
        bounds[1:-1] = np.maximum.accumulate(bounds[1:-1])
        part.boundaries = bounds
        return part

    def shard_of_array(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        ids = np.searchsorted(self.boundaries, keys, side="right") - 1
        return np.clip(ids, 0, self.n_shards - 1)


class OracleHash:
    """splitmix64-mixed key modulo the shard count."""

    def __init__(self, n_shards: int, seed: int = 0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.seed = seed

    def shard_of_array(self, keys) -> np.ndarray:
        z = np.asarray(keys, dtype=np.int64).astype(np.uint64)
        with np.errstate(over="ignore"):
            z = z + np.uint64(0x9E3779B97F4A7C15 + self.seed)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        return (z % np.uint64(self.n_shards)).astype(np.int64)


class OracleTable:
    """Generation-numbered boundary maps over a wrapped partitioner;
    generation 0 is the partitioner's own pass."""

    def __init__(self, partitioner):
        self.partitioner = partitioner
        self.n_shards = int(partitioner.n_shards)
        self.generation = 0
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.history: list[dict] = []

    def shard_of_array(self, keys, generation: int | None = None):
        gen = self.generation if generation is None else int(generation)
        if gen == 0:
            return self.partitioner.shard_of_array(keys)
        boundaries, owners = self._tables[gen]
        keys = np.asarray(keys, dtype=np.int64)
        seg = np.searchsorted(boundaries, keys, side="right") - 1
        return owners[np.clip(seg, 0, len(owners) - 1)]

    def shard_of(self, key: int, generation: int | None = None) -> int:
        return int(self.shard_of_array(
            np.asarray([key], dtype=np.int64), generation)[0])

    def _materialize(self, generation: int | None = None):
        gen = self.generation if generation is None else int(generation)
        if gen > 0:
            return self._tables[gen]
        part = self.partitioner
        if not hasattr(part, "boundaries"):
            raise ValueError("partitioner is not range-expressible")
        return (np.asarray(part.boundaries[:-1], dtype=np.int64),
                np.arange(self.n_shards, dtype=np.int64))

    def segments(self, sid: int | None = None,
                 generation: int | None = None):
        bounds, owners = self._materialize(generation)
        top = None
        if hasattr(self.partitioner, "boundaries"):
            top = int(np.asarray(self.partitioner.boundaries)[-1]) - 1
        if top is None or top < int(bounds[-1]):
            top = (1 << 32) - 2
        out = []
        for i in range(len(bounds)):
            hi = int(bounds[i + 1]) - 1 if i + 1 < len(bounds) else top
            if sid is None or int(owners[i]) == sid:
                out.append((int(bounds[i]), hi, int(owners[i])))
        return out

    def publish_move(self, lo: int, hi: int, dst: int, step: int = 0):
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
        for i, b in enumerate(bounds):
            if lo <= b <= hi:
                src_owners.add(owners[i])
                owners[i] = int(dst)
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
