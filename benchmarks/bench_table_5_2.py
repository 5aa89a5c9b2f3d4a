"""Table 5.2: effects on M&C of limiting warps launched per block.

Paper row (MOPS @ [10,10,80], 1M keys): 8→20.7, 16→21.3, 24→20.6,
32→20.2 — "throughput varies very little, regardless of the number of
warps launched", because M&C is bound by its memory access pattern, not
by SM resources, and its local path arrays spill (~23-25%) at every
launch shape.
"""


from conftest import save_result
from repro.experiments import paper_data, tables


def test_table_5_2(benchmark, scale):
    rows = benchmark.pedantic(tables.table_5_2, rounds=1, iterations=1)
    text = tables.render(rows, "Table 5.2 — M&C warps/block "
                         f"(scale={scale.name})", paper_data.TABLE_5_2)
    save_result("table_5_2", text)

    by_wpb = {r.warps_per_block: r for r in rows}
    assert by_wpb[8].active_blocks == 5
    # Claim 'mc-warps-flat': variation across the grid stays small.
    mops = [r.mops for r in rows]
    assert (max(mops) - min(mops)) / max(mops) < 0.15
    # Intrinsic spill shows at every shape.
    assert all(r.spill_pct > 10.0 for r in rows)
    # Occupancy achieved stays well below theoretical (memory-stalled
    # warps), unlike GFSL's near-theoretical occupancy.
    assert all(r.occupancy_pct < 0.93 * r.theoretical_pct for r in rows)
