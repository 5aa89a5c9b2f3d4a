#!/usr/bin/env python
"""Assert the paper's L2 cliff shape in a BENCH document.

The headline result (Section 5.3): a 10K-key structure fits in the
1.75 MB L2 and traversals hit cache; at 1M the working set spills and
the hit rate drops; at 100M almost every chunk read goes to DRAM.  This
gate checks that shape — for every (structure, backend, shards) group
in the given BENCH file, ``l2_hit_rate`` must be strictly decreasing
with ``key_range``, near-perfect at the smallest range, and clearly
degraded at the largest — so a cache-model or kernel-accounting change
that flattens the cliff fails CI.  A file that fails ``validate_bench``
is a usage error (exit 2).

Usage: check_l2_cliff.py BENCH_file.json  (with PYTHONPATH=src)
"""

import sys

from repro.metrics.bench import load_bench, validate_bench

SMALL_RANGE_MIN_HIT = 0.99   # 10K fits in L2: traversals all hit
LARGE_RANGE_MAX_HIT = 0.90   # 100M (and already 1M) spills to DRAM


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc = load_bench(argv[1])
    errors = validate_bench(doc)
    if errors:
        for e in errors:
            print(f"{argv[1]}: schema error: {e}", file=sys.stderr)
        return 2

    groups = {}
    for row in doc["rows"]:
        if row["oom"]:
            continue
        key = (row["structure"], row["backend"], row["shards"])
        groups.setdefault(key, []).append(
            (row["key_range"], row["l2_hit_rate"]))

    failures = []
    for key, cells in sorted(groups.items()):
        cells.sort()
        if len(cells) < 2:
            failures.append(f"{key}: need >= 2 key ranges, got {cells}")
            continue
        label = "/".join(str(k) for k in key)
        for (r_lo, h_lo), (r_hi, h_hi) in zip(cells, cells[1:]):
            if not h_hi < h_lo:
                failures.append(
                    f"{label}: no cliff {r_lo:,}->{r_hi:,} "
                    f"(l2 {h_lo:.3f} -> {h_hi:.3f})")
        if cells[0][1] < SMALL_RANGE_MIN_HIT:
            failures.append(
                f"{label}: smallest range {cells[0][0]:,} should be "
                f"L2-resident (hit {cells[0][1]:.3f} < "
                f"{SMALL_RANGE_MIN_HIT})")
        if cells[-1][1] > LARGE_RANGE_MAX_HIT:
            failures.append(
                f"{label}: largest range {cells[-1][0]:,} should spill "
                f"(hit {cells[-1][1]:.3f} > {LARGE_RANGE_MAX_HIT})")
        print(f"cliff ok: {label}: "
              + " -> ".join(f"{h:.3f}@{r:,}" for r, h in cells))

    if not groups:
        failures.append("no non-OOM rows in document")
    for f in failures:
        print(f"CLIFF FAILURE: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
