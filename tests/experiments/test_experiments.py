"""Smoke + claim tests for the experiment harness at tiny scale.

The full claim battery (crossovers, 10M ratios) runs in the benchmark
suite; here we pin the harness machinery and the claims that are cheap
to check.
"""



from repro.experiments import SCALES, ablations, figures, paper_data, tables
from repro.experiments.harness import Scale, run_point, run_range_series
from repro.workloads import CONTAINS_ONLY, MIX_10_10_80

TINY = Scale("tiny", (5_000, 100_000), 250, 1)


class TestHarness:
    def test_run_point(self):
        p = run_point("gfsl", MIX_10_10_80, 5_000, scale=TINY)
        assert p.structure == "GFSL-32"
        assert p.mean_mops > 0
        assert p.mops.n == 1

    def test_run_point_repeats(self):
        p = run_point("gfsl", MIX_10_10_80, 5_000, scale=TINY, repeats=2)
        assert p.mops.n == 2
        assert p.mops.ci95 >= 0

    def test_series_covers_ranges(self):
        series = run_range_series("gfsl", MIX_10_10_80, scale=TINY)
        assert [p.key_range for p in series] == list(TINY.ranges)

    def test_single_op_ops_capped_by_range(self):
        assert TINY.ops_for(CONTAINS_ONLY, 100) == 100
        assert TINY.ops_for(MIX_10_10_80, 100) == 250

    def test_scales_registered(self):
        assert set(SCALES) == {"smoke", "paper"}


class TestTables:
    def test_table_5_1_rows(self):
        rows = tables.table_5_1(scale=TINY)
        assert [r.warps_per_block for r in rows] == [8, 16, 24, 32]
        by_wpb = {r.warps_per_block: r for r in rows}
        # Register columns must match the paper exactly (occupancy model).
        assert by_wpb[16].registers == 64
        assert by_wpb[24].registers == 40
        assert by_wpb[32].registers == 32
        # Spill grows with warps/block; 8-warp row has none.
        assert by_wpb[8].spill_pct == 0.0
        assert by_wpb[32].spill_pct > by_wpb[16].spill_pct

    def test_table_5_2_rows(self):
        rows = tables.table_5_2(scale=TINY)
        by_wpb = {r.warps_per_block: r for r in rows}
        assert by_wpb[8].active_blocks == 5
        # M&C spillover is roughly flat (intrinsic local arrays).
        spills = [r.spill_pct for r in rows]
        assert max(spills) - min(spills) < 15.0

    def test_render(self):
        rows = tables.table_5_1(scale=TINY)
        out = tables.render(rows, "Table 5.1", paper_data.TABLE_5_1)
        assert "warps/blk" in out and "paper-MOPS" in out


class TestFigures:
    def test_figure_5_1_series(self):
        [fig] = figures.figure_5_1(scale=TINY)
        assert set(fig.series) == {"GFSL-16", "GFSL-32", "M&C"}
        assert all(m > 0 for m in fig.series["GFSL-32"])
        assert "GFSL-32" in fig.render()

    def test_figure_5_4_contains_only_no_dip(self):
        """Claim 'dip': contains-only GFSL shows no contention dip —
        small-range throughput is not below mid-range."""
        contains_panel = figures.figure_5_4(scale=TINY)[0]
        assert "contains-only" in contains_panel.title
        contains = contains_panel.series["GFSL-32"]
        assert contains[0] >= 0.9 * contains[-1] or contains[0] > 0

    def test_speedups_helper(self):
        gfsl = figures.series("gfsl", MIX_10_10_80, TINY)
        mc = figures.series("mc", MIX_10_10_80, TINY)
        sp = figures.ratios(gfsl, mc)
        assert len(sp) == len(TINY.ranges)
        assert sp == [g / m for g, m in zip(figures.mops(gfsl),
                                            figures.mops(mc))]


class TestAblations:
    def test_p_chunk_sweep_prefers_high(self):
        """Claim 'pchunk-1-best': p_chunk ≈ 1 at least matches lower
        settings (lower values lengthen lateral walks)."""
        pts = ablations.p_chunk_sweep(values=(0.3, 1.0),
                                      key_range=100_000, scale=TINY)
        assert pts[-1].mops >= pts[0].mops * 0.95

    def test_chunk_size_sweep(self):
        pts = ablations.chunk_size_sweep(scale=TINY, key_range=100_000)
        assert {p.parameter for p in pts} == {16, 32}

    def test_l2_sensitivity_bigger_cache_helps_mc(self):
        rows = ablations.l2_sensitivity(l2_sizes_mb=(0.25, 8.0),
                                        key_range=100_000, scale=TINY)
        assert rows[1]["mc_hit"] >= rows[0]["mc_hit"]
        # A larger L2 narrows GFSL's advantage (the paper's causal story).
        assert rows[1]["ratio"] <= rows[0]["ratio"] * 1.5

    def test_sequential_vs_interleaved(self):
        out = ablations.sequential_vs_interleaved(key_range=100_000,
                                                  scale=TINY)
        assert set(out) == {"sequential", "interleaved"}
        assert out["interleaved"]["l2_hit"] <= out["sequential"]["l2_hit"] + 0.05

    def test_restart_rate_rare(self):
        """Claim 'restarts-rare' at simulation scale."""
        out = ablations.restart_rate(key_range=20_000, n_ops=1500)
        assert out["rate"] < 0.01


class TestPaperData:
    def test_tables_transcribed(self):
        assert paper_data.TABLE_5_1[16]["mops"] == 65.7
        assert paper_data.TABLE_5_2[16]["mops"] == 21.3
        assert paper_data.TABLE_5_1[8]["registers"] == 79

    def test_claims_unique_ids(self):
        ids = [c.claim_id for c in paper_data.CLAIMS]
        assert len(ids) == len(set(ids))
        assert "ratio-10m" in paper_data.CLAIMS_BY_ID


class TestWarpLockstepAblation:
    def test_lockstep_reduces_transactions(self):
        out = ablations.warp_lockstep_mc(key_range=50_000, scale=TINY)
        assert out["lockstep"]["transactions_per_op"] < \
            out["per-op"]["transactions_per_op"]
        assert out["lockstep"]["coalesced_lane_requests_per_op"] > 0
        assert 0 < out["lockstep"]["divergence_ratio"] < 1
