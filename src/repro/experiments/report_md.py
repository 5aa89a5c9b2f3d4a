"""Assemble EXPERIMENTS.md from benchmark results.

``pytest benchmarks/`` writes each table/figure's measured rows to
``benchmarks/results/``; this module stitches them together with the
paper's published values and the deviation notes into the reproduction
record.  Regenerate with::

    python -m repro.experiments.report_md [results_dir] [output_md]
"""

from __future__ import annotations

import pathlib
import sys


HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure in Chapter 5 of the
thesis (the full version of the PPoPP'17 poster).  Measured values come
from the simulated GTX 970 (see DESIGN.md §2 for the hardware
substitution) at the paper's key ranges; regenerate them with::

    PYTHONPATH=src pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m repro.experiments.report_md

Absolute throughput is calibrated (the cost model's constants were fit
to Tables 5.1/5.2's anchor values), so the comparison targets *shape*:
who wins, where crossovers fall, and rough factors.  Each section lists
the paper's claim and what the measurement shows; the numbers are in
the tables, and the claim scorecard at the end judges each claim.
"""

SECTIONS = [
    ("table_5_1", "Table 5.1 — GFSL: warps per block",
     "Paper: 58.9 / **65.7** / 62.5 / 52.9 MOPS for 8/16/24/32 warps per "
     "block — the optimum at 16 balances latency-hiding occupancy "
     "against register spillover (79→64→40→32 allocated registers, "
     "0%→10%→43%→53% spill traffic).\n\n"
     "Measured: the occupancy model reproduces the block counts and the "
     "16/24/32-warp register counts; the throughput optimum lands at 16 "
     "warps with the 32-warp row a double-digit margin below it.  The "
     "24-warp row degrades more than the paper's (our spill-cost model "
     "is linear in the register deficit)."),
    ("table_5_2", "Table 5.2 — M&C: warps per block",
     "Paper: 20.7 / 21.3 / 20.6 / 20.2 MOPS — \"throughput varies very "
     "little\" because M&C is memory-access-bound, with ~23-25% local "
     "spill traffic (thread-local path arrays) at every shape.\n\n"
     "Measured: flat across the grid, intrinsic spill at every row, "
     "achieved occupancy well below theoretical."),
    ("fig_5_1", "Figure 5.1 — GFSL-16 vs GFSL-32 vs M&C",
     "Paper: the two chunk sizes are similar at small ranges; GFSL-32 "
     "outperforms GFSL-16 by up to 28% at high ranges (cause unknown to "
     "the authors; they suspect sub-warp team overheads).\n\n"
     "Measured: similar at 10K, GFSL-32 ahead from 30K on.  We "
     "model the sub-warp penalty as mask-management overhead on every "
     "cooperative op; the paper's 'similar at small / diverging at "
     "large' gradient is only partially reproduced (our gap opens "
     "earlier)."),
    ("fig_5_2", "Figure 5.2 — GFSL/M&C speedup ratio",
     "Paper: GFSL slower by up to 46% at 10K, within ~10% at 30K, ahead "
     "by 27%-1064% above; 6.8x-11.6x at 10M.\n\n"
     "Measured: M&C ahead at 10K in the contains-heavy mixtures while "
     "the update-heavy [20,20,60] already favours GFSL (paper: +8%); the "
     "ratios then rise monotonically with the range, and the 10M ratios "
     "land inside the paper's 6.8-11.6 band.  The crossover (paper: just "
     "above 30K) is read off the table."),
    ("fig_5_3", "Figure 5.3 — mixed workloads across ranges",
     "Paper: GFSL nearly flat as the range grows (≤8% loss 1M→10M) with "
     "a contention dip at small ranges that deepens/moves with the "
     "update share; M&C melts down (-69-75% from 1M→10M).\n\n"
     "Measured: GFSL flat beyond 100K with the small-range dip scaling "
     "with update fraction; M&C's 1M→10M loss is shallower than the "
     "paper's 69-75% (our TLB/scatter model is conservative)."),
    ("fig_5_4", "Figure 5.4 — single-operation workloads",
     "Paper: GFSL ahead everywhere — Contains up to 4.4x (large) / "
     "2.9x (small), Insert 3.5x-9.1x, Delete 3.5x-12.6x; M&C OOMs above "
     "3M.\n\n"
     "Measured: GFSL ahead in every test at every range M&C fits, the "
     "contains and delete ratios rising with range; the insert ratios "
     "stay below the paper's 3.5x floor except at the largest range M&C "
     "fits (our M&C insert is cheaper than theirs at small ranges "
     "because the simulator charges no allocation-failure retries).  "
     "M&C single-op points above 3M report OOM, as in the paper.  Note "
     "the insert-only sampling substitution recorded in DESIGN.md §2 "
     "(growth-midpoint prefill)."),
    ("ablation_p_chunk", "§5.2 — p_chunk sweep (GFSL)",
     "Paper: p_chunk ≈ 1 best in all mixtures.  Measured: agrees; lower "
     "values lengthen lateral walks without shrinking height."),
    ("ablation_p_key", "§5.2 — p_key sweep (M&C)",
     "Paper: p_key = 0.5 best.  Measured: 0.5 at/near the optimum of "
     "the sweep."),
    ("ablation_chunk_size", "§5.2 — chunk/team size",
     "Measured: GFSL-32 ≥ GFSL-16 at the 1M range (see Figure 5.1)."),
    ("ablation_l2", "Extra ablation — L2 capacity sensitivity",
     "Not in the paper: growing the simulated L2 lifts M&C's hit rate "
     "and narrows GFSL's advantage, direct evidence for the paper's "
     "causal explanation of the range-dependent crossover."),
    ("ablation_replay_mode", "Extra ablation — replay mode",
     "Sequential vs interleaved replay of the same M&C workload: "
     "interleaving concurrent op streams adds DRAM traffic per op "
     "(cache thrashing between streams)."),
    ("ablation_warp_lockstep", "Extra ablation — warp-lockstep M&C",
     "Full SIMT lockstep accounting coalesces M&C's shared head-tower "
     "reads (fewer transactions/op) but the per-lane pointer chases "
     "below the tower top stay scattered — still several times GFSL's "
     "transaction budget."),
    ("ablation_key_skew", "Extra ablation — Zipfian key skew",
     "Not in the paper (uniform keys only): skewed traffic improves "
     "cache behaviour for both structures; hot-key updates press on "
     "GFSL's chunk-granularity locks sooner than on M&C's per-node CAS."),
    ("ablation_merge_threshold", "Extra ablation — merge threshold",
     "The paper fixes the underfull bound at DSIZE/3.  Sweeping the "
     "divisor shows the trade: eager merging (divisor 2) makes more "
     "merges and zombies but keeps chunks full; lazy merging (divisor 5) "
     "tolerates sparse chunks and leaves more live chunks after heavy "
     "deletion."),
    ("restart_rate", "§4.2.1 — Contains restart rate",
     "Paper: restarts in <0.01% of Contains.  Measured: rare — the "
     "triggering race needs a down-step key deleted from both levels "
     "mid-traversal."),
    ("memory_wall", "§5.3 — the memory wall",
     "Paper: M&C exhausts device memory above the 10M (mixed) / 3M "
     "(single-op) ranges; GFSL's compact chunks run to 100M.  Measured: "
     "the allocation arithmetic reproduces both boundaries; the GFSL "
     "column is the chunk footprint of real builds (the 100M row is not "
     "built), a small share of the 4 GiB device."),
    ("gfsl_30m", "§5.3 — GFSL past the wall",
     "GFSL-32 measured at 30M keys, where the allocation arithmetic puts "
     "M&C out of memory."),
    ("claims", "Claim scorecard",
     "Every falsifiable claim that Figures 5.1-5.4 decide, judged once "
     "against this run's series (ratio-30k is recorded, not gated); the "
     "remaining claims are listed with the bench that checks them."),
    ("micro_device_cost", "Per-operation device cost",
     "The mechanism behind everything above: a GFSL op costs a handful "
     "of coalesced transactions; an M&C op costs many times more, all "
     "scattered."),
]

FOOTER = """## Known deviations

* **Absolute MOPS are calibrated, not measured** — constants were fit
  to the Table 5.1/5.2 anchors; treat all absolute numbers as
  model-relative.
* **M&C's 1M→10M decay** (the scorecard's gfsl-flat row) is shallower
  than the paper's 69-75%; our TLB/scattered-DRAM penalties are
  conservative.
* **GFSL-16 vs GFSL-32**: the paper could not explain the 28% gap; we
  model it as sub-warp mask overhead, which opens the gap at mid ranges
  earlier than Figure 5.1 shows.
* **Insert-only sampling**: scaled samples start from a half-full
  structure (growth midpoint) rather than empty — sampling the paper's
  10M-insert run at its start would measure only the initial
  single-chunk contention burst (DESIGN.md §2).
* **Contains-only instability**: the paper reports unstable M&C numbers
  (50% CIs) at small ranges and "was unable to determine the cause";
  the simulator is deterministic and shows no instability.
"""


def build(results_dir: pathlib.Path) -> str:
    parts = [HEADER]
    for name, title, commentary in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(commentary + "\n")
        f = results_dir / f"{name}.txt"
        if f.exists():
            parts.append("```\n" + f.read_text().strip() + "\n```\n")
        else:
            parts.append("*(no measured rows found — run "
                         "`pytest benchmarks/ --benchmark-only`)*\n")
    parts.append("\n" + FOOTER)
    return "\n".join(parts)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    root = pathlib.Path(__file__).resolve().parents[3]
    results = pathlib.Path(argv[0]) if argv else root / "benchmarks/results"
    out = pathlib.Path(argv[1]) if len(argv) > 1 else root / "EXPERIMENTS.md"
    out.write_text(build(results))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
