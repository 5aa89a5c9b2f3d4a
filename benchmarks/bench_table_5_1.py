"""Table 5.1: effects on GFSL of limiting warps launched per block.

Paper row (MOPS @ [10,10,80], 1M keys): 8→58.9, 16→65.7, 24→62.5,
32→52.9, with the optimum at 16 warps per block — the balance point
between latency-hiding parallelism and register spillover.
"""


from conftest import save_result
from repro.experiments import paper_data, tables


def test_table_5_1(benchmark, scale):
    save_result("table_5_1", benchmark.pedantic(
        tables.render, args=("5.1", scale), rounds=1, iterations=1))
    rows = tables.table_5_1(scale)      # the rows the rendering printed

    by_wpb = {r.warps_per_block: r for r in rows}
    # Register column reproduces the paper exactly, every row.
    for wpb, paper in paper_data.TABLE_5_1.items():
        assert by_wpb[wpb].registers == paper["registers"], wpb
    assert by_wpb[8].active_blocks == 3
    # Claim 'warps-16-best': 16 warps/block is the throughput optimum.
    best = max(rows, key=lambda r: r.mops)
    assert best.warps_per_block == 16
    # Spillover column: none at 8, rising through 24/32.
    assert by_wpb[8].spill_pct == 0.0
    assert by_wpb[32].spill_pct > by_wpb[16].spill_pct > 0
    # The 32-warp row loses to the 16-warp row by a doubl-digit margin,
    # as in the paper (52.9 vs 65.7).
    assert by_wpb[32].mops < 0.95 * by_wpb[16].mops
