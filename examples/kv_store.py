#!/usr/bin/env python3
"""A GPU-resident ordered key-value store built on GFSL.

The paper's introduction motivates skiplists as the basis of key-value
stores (RocksDB, Redis); MegaKV [ZWY+15] showed GPU-resident stores
work.  This example builds that scenario: a KV store whose index lives
in simulated device memory, serving *batched* request streams (the
host→device batching model every GPU store uses), with point GETs,
PUTs, DELs, ordered SCANs, and a compaction cycle.

Run:  python examples/kv_store.py
"""

from __future__ import annotations

import numpy as np

from repro.core import GFSL, bulk_build_into, suggest_capacity


class GPUKeyValueStore:
    """Ordered KV store: GFSL index + host-side value heap.

    32-bit device values index a host value heap, the indirection the
    paper suggests for larger objects ("A 32-bit value field may be used
    to indicate the address of a larger object", Section 4.1).
    """

    def __init__(self, expected_keys: int, seed: int = 1):
        self.index = GFSL(capacity_chunks=suggest_capacity(expected_keys),
                          team_size=32, seed=seed)
        self._heap: list[bytes] = []

    # -- single-key API ---------------------------------------------------
    def put(self, key: int, value: bytes) -> None:
        self._heap.append(value)
        handle = len(self._heap) - 1
        if not self.index.insert(key, handle):
            # Key exists: update in place via delete+insert (the GFSL
            # value field is immutable once linked).
            self.index.delete(key)
            self.index.insert(key, handle)

    def get(self, key: int) -> bytes | None:
        handle = self.index.get(key)
        return self._heap[handle] if handle is not None else None

    def delete(self, key: int) -> bool:
        return self.index.delete(key)

    def scan(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        return [(k, self._heap[h]) for k, h in self.index.range_query(lo, hi)]

    # -- batched API (the GPU execution model) -----------------------------
    def execute_batch(self, requests) -> list:
        """Run a request batch as one simulated kernel: all requests in
        flight concurrently, interleaved at memory-access granularity."""
        gens, posts = [], []
        for req in requests:
            op = req[0]
            if op == "GET":
                gens.append(self.index.get_gen(req[1]))
                posts.append(("get",))
            elif op == "PUT":
                self._heap.append(req[2])
                gens.append(self.index.insert_gen(req[1],
                                                  len(self._heap) - 1))
                posts.append(("put", req[1], len(self._heap) - 1))
            elif op == "DEL":
                gens.append(self.index.delete_gen(req[1]))
                posts.append(("del",))
            else:
                raise ValueError(op)
        results = self.index.ctx.run_concurrent(gens, seed=7)
        out = []
        for r, post in zip(results, posts):
            if post[0] == "get":
                out.append(self._heap[r.value] if r.value is not None
                           else None)
            elif post[0] == "put":
                if not r.value:  # duplicate: in-place update fallback
                    self.index.delete(post[1])
                    self.index.insert(post[1], post[2])
                out.append(True)
            else:
                out.append(bool(r.value))
        return out

    def compact(self) -> int:
        """Between batches: reclaim zombie chunks (the paper's
        future-work stop-the-world scheme)."""
        return self.index.compact()


def main() -> None:
    rng = np.random.default_rng(0)
    store = GPUKeyValueStore(expected_keys=20_000)

    # Bulk-load a dataset, as a store would on startup from its log.
    keys = rng.choice(np.arange(1, 100_000), size=8_000, replace=False)
    print(f"loading {len(keys)} records...")
    # Bulk-load the index; every record initially points at heap slot 0
    # (a shared tombstone), then a sample gets real payloads via put().
    store._heap = [b"<bulk-loaded>"]
    bulk_build_into(store.index, keys, rng=store.index.rng)
    sample = [int(k) for k in keys[:5]]
    for k in sample:
        store.put(k, f"value-of-{k}".encode())

    for k in sample[:3]:
        print(f"GET {k} -> {store.get(k)!r}")

    # A mixed batch, executed as one kernel.
    batch = []
    for k in rng.choice(keys, size=64, replace=False):
        batch.append(("GET", int(k)))
    for k in range(200_000, 200_032):
        batch.append(("PUT", k, f"fresh-{k}".encode()))
    for k in rng.choice(keys, size=32, replace=False):
        batch.append(("DEL", int(k)))
    results = store.execute_batch(batch)
    hits = sum(1 for r in results[:64] if r is not None)
    print(f"batch of {len(batch)}: {hits}/64 GET hits, "
          f"{sum(1 for r in results[-32:] if r)} DELs applied")

    scan = store.scan(200_000, 200_010)
    print(f"SCAN [200000, 200010]: {[(k, v.decode()) for k, v in scan]}")

    reclaimed = store.compact()
    print(f"compaction reclaimed {reclaimed} chunks")
    print(f"store holds {len(store.index)} keys — done")


if __name__ == "__main__":
    main()
