#!/usr/bin/env python3
"""Quickstart: create a GFSL on the simulated GPU and use it.

Covers the whole public surface in a minute: insert/contains/delete/get,
bulk loading, range queries, the structure validators, and the
device-side cost counters the benchmarks are built on.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (GFSL, bulk_build_into, suggest_capacity,
                        validate_structure)


def main() -> None:
    # A skiplist sized for ~10K keys with warp-sized (32-entry) chunks.
    sl = GFSL(capacity_chunks=suggest_capacity(10_000), team_size=32,
              seed=42)

    # --- basic operations (each one simulated warp-team op) ----------
    assert sl.insert(100, value=1)          # True: newly inserted
    assert sl.insert(200, value=2)
    assert not sl.insert(100, value=9)      # False: duplicate
    assert sl.contains(100)
    assert sl.get(200) == 2
    assert sl.delete(100)
    assert not sl.contains(100)
    print("basic ops OK — structure:", sl.items())

    # --- bulk load (the benchmark prefill path; replaces contents) ----
    keys = np.arange(1_000, 9_000, 7)
    bulk_build_into(sl, keys, keys % 1000)
    print(f"bulk-loaded {len(sl)} keys (previous contents replaced)")

    # --- range query (chunked nodes make this one coalesced read per
    #     ~DSIZE consecutive hits) -------------------------------------
    window = sl.range_query(2_000, 2_100)
    print(f"range [2000, 2100] -> {len(window)} pairs, first {window[:3]}")

    # --- invariants (Section 4.3) -------------------------------------
    stats = validate_structure(sl)
    print("validated:", stats)

    # --- what did that cost on the simulated GPU? ---------------------
    sl.ctx.tracer.reset_stats()
    sl.contains(2_003)
    t = sl.ctx.tracer.stats
    print(f"one Contains: {t.transactions} transactions "
          f"({t.coalesced_accesses} coalesced chunk reads, "
          f"L2 hit rate {t.l2_hit_rate:.2f})")

    print("quickstart complete")


if __name__ == "__main__":
    main()
