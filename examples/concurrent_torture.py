#!/usr/bin/env python3
"""Concurrency torture demo: watch the locking protocol survive.

Interleaves hundreds of inserts, deletes, and searches at memory-access
granularity over a deliberately tiny key range (maximal chunk
contention: splits, merges, zombies, lock hand-offs), then audits the
result — every reported success is reconciled against the final
structure and all Section 4.3 invariants are re-checked.

Run:  python examples/concurrent_torture.py [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core import GFSL, bulk_build_into, validate_structure


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2026
    rng = np.random.default_rng(seed)

    sl = GFSL(capacity_chunks=2048, team_size=16, seed=seed)
    prefill = sorted(int(k) for k in
                     rng.choice(np.arange(1, 400), size=120, replace=False))
    bulk_build_into(sl, prefill, rng=sl.rng)
    print(f"prefilled {len(prefill)} keys in range [1, 400) "
          f"(~{len(prefill) // 9 + 1} bottom chunks — a contention furnace)")

    ops = []
    for _ in range(600):
        k = int(rng.integers(1, 400))
        ops.append((rng.choice(["insert", "delete", "contains"]), k))
    gens = [getattr(sl, f"{op}_gen")(k) for op, k in ops]
    results = sl.ctx.run_concurrent(gens, seed=seed)

    # Reconcile every key's history against the final structure.
    final = set(sl.keys())
    pre = set(prefill)
    per_key: dict[int, list] = {}
    for (op, k), r in zip(ops, results):
        per_key.setdefault(k, []).append((op, r.value))
    for k, events in per_key.items():
        ins = sum(1 for op, v in events if op == "insert" and v)
        dels = sum(1 for op, v in events if op == "delete" and v)
        assert int(k in pre) + ins - dels == int(k in final), \
            f"inconsistent history for key {k}"

    stats = validate_structure(sl)
    s = sl.metrics
    print(f"ran {len(ops)} interleaved ops: "
          f"{s.inserts} inserts, {s.deletes} deletes landed")
    print(f"structural churn: {s.splits} splits, {s.merges} merges, "
          f"{s.zombies_unlinked} zombies lazily unlinked, "
          f"{s.downptr_updates} down-pointers repaired")
    print(f"lock-free search restarts: {s.contains_restarts}")
    print(f"final structure: {len(final)} keys, height {stats['height']}, "
          f"{stats['zombies']} zombies awaiting reclamation")
    print("all op histories reconciled, all invariants hold — torture "
          "survived")


if __name__ == "__main__":
    main()
