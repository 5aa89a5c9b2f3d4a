"""The claim scorecard: every falsifiable statement the paper's
evaluation makes about Figures 5.1–5.4, judged once against this run's
series.

The figure benches only render these series
(:func:`repro.experiments.figures.series` runs each once per session);
every claim check on them lives here.  Prints PASS/MISS per claim,
records the scorecard, and fails on any MISS of a hard claim.  The
claims the figure series do not decide are named with the bench that
checks them.
"""

import math

from conftest import save_result
from repro.analysis import render_table
from repro.experiments import figures, paper_data
from repro.workloads import (MIX_1_1_98, MIX_10_10_80, MIX_20_20_60,
                             PAPER_MIXTURES)

CHECKED_ELSEWHERE = {
    "warps-16-best": "bench_table_5_1.py",
    "mc-warps-flat": "bench_table_5_2.py",
    "pchunk-1-best": "bench_ablation_probs.py",
    "pkey-half-best": "bench_ablation_probs.py",
    "restarts-rare": "bench_ablation_structure.py::test_restart_rate",
}


def _span(values, fmt: str) -> str:
    lo, hi = f"{min(values):{fmt}}", f"{max(values):{fmt}}"
    return lo if lo == hi else f"{lo}…{hi}"


def test_claim_scorecard(benchmark, scale):
    def collect():
        mixed = {mix.name: (figures.series("gfsl", mix, scale),
                            figures.series("mc", mix, scale))
                 for mix in PAPER_MIXTURES}
        single = {label: (figures.series("gfsl", mix, scale),
                          figures.series("mc", mix, scale))
                  for label, mix in figures.SINGLE_OP_MIXTURES}
        g16 = figures.series("gfsl", MIX_10_10_80, scale, 16)
        return mixed, single, g16

    mixed, single, g16 = benchmark.pedantic(collect, rounds=1, iterations=1)
    at = scale.ranges.index
    i10k, i30k, i1m, i3m, i10m = (at(r) for r in (
        10_000, 30_000, 1_000_000, 3_000_000, 10_000_000))
    rows = []
    hard_failures = []

    def record(claim_id: str, ok: bool, detail: str, hard: bool = True):
        rows.append([claim_id, "PASS" if ok else "MISS", detail])
        if hard and not ok:
            hard_failures.append((claim_id, detail))

    # --- Figure 5.2: the GFSL/M&C ratio ------------------------------------
    ratio = {name: figures.ratios(g, m) for name, (g, m) in mixed.items()}
    r10k = {name: r[i10k] for name, r in ratio.items()}
    r30k = [r[i30k] for r in ratio.values()]
    r10m = [r[i10m] for r in ratio.values()]
    record("ratio-10k", 0.45 < min(r10k.values()) < 1.1,
           f"min mixture ratio at 10K = {min(r10k.values()):.2f}")
    record("ratio-30k", all(0.9 <= r <= 1.1 for r in r30k),
           f"30K ratios {_span(r30k, '.2f')} (within ±10% needed)",
           hard=False)
    record("ratio-large",
           all(r > 1.27 for r in r10m)
           and all(r[i10m] > r[i10k] for r in ratio.values()),
           f"10M ratios {_span(r10m, '.2f')}, each above its 10K ratio")
    record("ratio-10m", all(5.5 <= r <= 13.0 for r in r10m),
           f"10M ratios {_span(r10m, '.2f')}")

    # --- Figure 5.3: mixed throughput across ranges ------------------------
    g_change = [g[i10m].mean_mops / g[i1m].mean_mops - 1
                for g, _m in mixed.values()]
    m_change = [m[i10m].mean_mops / m[i1m].mean_mops - 1
                for _g, m in mixed.values()]
    m_of_peak = [m[i10m].mean_mops / max(figures.mops(m))
                 for _g, m in mixed.values()]
    record("gfsl-flat",
           all(c > -0.15 for c in g_change)
           and all(c < -0.3 for c in m_change)
           and all(f < 0.75 for f in m_of_peak),
           f"1M→10M: GFSL {_span(g_change, '+.0%')}, "
           f"M&C {_span(m_change, '+.0%')}; "
           f"M&C at 10M is {_span(m_of_peak, '.0%')} of its peak")
    record("updates-flip-10k",
           r10k[MIX_20_20_60.name] == max(r10k.values()),
           f"[20,20,60]@10K ratio {r10k[MIX_20_20_60.name]:.2f} is the max")
    g_heavy = figures.mops(mixed[MIX_20_20_60.name][0])
    g_light = figures.mops(mixed[MIX_1_1_98.name][0])
    g_contains = figures.mops(single["contains-only"][0])
    dip_heavy = g_heavy[0] / max(g_heavy)
    dip_light = g_light[0] / max(g_light)
    no_dip = g_contains[0] / min(g_contains)
    record("dip", dip_heavy < dip_light and no_dip >= 0.9,
           f"10K/peak: [20,20,60] {dip_heavy:.2f} < [1,1,98] "
           f"{dip_light:.2f}; contains-only 10K/min {no_dip:.2f}")

    # --- Figure 5.4: single-op tests --------------------------------------
    # M&C's single-op runs are out of memory above 3M, so 3M is the
    # top range with a ratio.
    single_ratio = {label: figures.ratios(g, m)
                    for label, (g, m) in single.items()}
    for label, floor in (("contains-only", 0.9), ("insert-only", 1.0),
                         ("delete-only", 1.0)):
        rs = [r for r in single_ratio[label] if not math.isnan(r)]
        ok = all(r > floor for r in rs) and max(rs) > 1.8
        detail = f"{label} ratios {_span(rs, '.2f')}"
        if label == "delete-only":
            top_d = single_ratio["delete-only"][i3m]
            top_c = single_ratio["contains-only"][i3m]
            ok = ok and top_d >= 0.9 * top_c
            detail += f"; 3M delete {top_d:.2f} vs contains {top_c:.2f}"
        record(label.replace("-only", "-speedup"), ok, detail)
    record("mc-oom",
           all(m[i10m].oom and not m[i3m].oom and not g[i10m].oom
               for g, m in single.values())
           and not any(m[i10m].oom for _g, m in mixed.values()),
           "M&C single-op OOM at 10M, measured at 3M; M&C mixed and "
           "GFSL measured at 10M")

    # --- Figure 5.1: chunk size --------------------------------------------
    g32, mc = mixed[MIX_10_10_80.name]
    top = g32[i10m].mean_mops / g16[i10m].mean_mops
    small = g32[i10k].mean_mops / g16[i10k].mean_mops
    record("gfsl32-beats-16",
           1.0 <= top <= 1.45 and 0.7 < small < 1.35
           and g16[i10m].mean_mops > mc[i10m].mean_mops,
           f"GFSL-32/GFSL-16 {small:.2f} at 10K, {top:.2f} at 10M; "
           f"10M GFSL-16 {g16[i10m].mean_mops:.1f} vs M&C "
           f"{mc[i10m].mean_mops:.1f} MOPS")

    scored = {row[0] for row in rows}
    assert scored.isdisjoint(CHECKED_ELSEWHERE)
    assert scored | set(CHECKED_ELSEWHERE) == set(paper_data.CLAIMS_BY_ID)
    text = render_table(
        f"Claim scorecard (scale={scale.name})",
        ["claim", "verdict", "detail"], rows)
    text += "\n  checked elsewhere: " + ", ".join(
        f"{claim} ({bench})" for claim, bench in CHECKED_ELSEWHERE.items())
    save_result("claims", text)
    assert not hard_failures, hard_failures
