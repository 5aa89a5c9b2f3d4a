"""Workload-shape ablations (beyond the paper).

* **Key skew**: the paper's benchmarks draw keys uniformly; real KV
  traffic is Zipfian.  Skew concentrates the access stream on a hot
  set, so both structures cache better — and GFSL's chunk-granularity
  locks feel hot-key update contention sooner than M&C's per-node CAS.
* **Merge threshold**: "DSIZE/3 in this work" (§4.2.3) is a design
  choice; the sweep shows the trade — an aggressive threshold (divisor
  2) merges eagerly and churns zombies, a lazy one (divisor 5+) tolerates
  sparse chunks and lengthens traversals.
"""


from conftest import save_result
from repro.analysis import render_table
from repro.core import GFSL, validate_structure
from repro.workloads import MIX_10_10_80, generate, run_workload


def test_key_skew(benchmark, scale):
    key_range = 300_000

    def run():
        rows = []
        for dist, s in (("uniform", 0.0), ("zipf", 0.8), ("zipf", 1.2)):
            w = generate(MIX_10_10_80, key_range=key_range,
                         n_ops=scale.n_ops, seed=3,
                         distribution=dist, zipf_s=s or 1.0)
            g = run_workload("gfsl", w)
            m = run_workload("mc", w)
            label = dist if dist == "uniform" else f"zipf s={s}"
            rows.append([label, g.mops, g.l2_hit_rate, m.mops,
                         m.l2_hit_rate, g.mops / m.mops])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        f"Key-distribution ablation — [10,10,80] @ {key_range:,} "
        f"(scale={scale.name})",
        ["distribution", "GFSL MOPS", "GFSL l2", "M&C MOPS", "M&C l2",
         "ratio"], rows)
    save_result("ablation_key_skew", text)
    by = {r[0]: r for r in rows}
    # Skew improves cache behaviour for both structures.
    assert by["zipf s=1.2"][2] >= by["uniform"][2] - 0.02   # GFSL l2
    assert by["zipf s=1.2"][4] >= by["uniform"][4] - 0.02   # M&C l2


def test_merge_threshold(benchmark, scale):
    def run():
        rows = []
        for divisor in (2, 3, 5):
            sl = GFSL(capacity_chunks=2048,  # lazy merging + zombies need headroom
                      team_size=16, merge_divisor=divisor, seed=divisor)
            keys = list(range(1, 3_000))
            for k in keys:
                sl.insert(k)
            import random
            random.Random(divisor).shuffle(keys)
            for k in keys[:2_400]:
                sl.delete(k)
            validate_structure(sl)
            from repro.core.validate import level_chain
            live_chunks = sum(
                1 for _p, kv in level_chain(sl, 0)
                if int(kv[sl.geo.lock_idx]) != 2)
            rows.append([divisor, sl.geo.merge_threshold,
                         sl.metrics.merges, sl.zombie_count(),
                         live_chunks])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        "Merge-threshold ablation (paper: divisor 3)",
        ["divisor", "threshold", "merges", "zombies", "live chunks"], rows)
    save_result("ablation_merge_threshold", text)
    by = {r[0]: r for r in rows}
    # Eager merging (divisor 2) merges more and keeps fewer, fuller
    # live chunks; lazy merging (5) the opposite.
    assert by[2][2] > by[3][2] > by[5][2]
    assert by[2][4] <= by[5][4]
