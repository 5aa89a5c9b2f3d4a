"""Tables 5.1 and 5.2: effects of warps-per-block on each algorithm.

Each row resolves the launch shape through the occupancy model and runs
the [10,10,80] 1M-key workload, reporting achieved/theoretical
occupancy, allocated registers, active blocks, spillover traffic share,
and throughput — the exact columns of the thesis tables, printed next to
the published values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import render_table
from ..baseline import MC_KERNEL
from ..core import GFSL_KERNEL
from ..gpu import DeviceConfig, LaunchConfig, compute_occupancy
from ..workloads import MIX_10_10_80, generate, run_workload
from . import paper_data
from .harness import PAPER, Scale

WARPS_GRID = (8, 16, 24, 32)
TABLE_RANGE = 1_000_000


@dataclass
class TableRow:
    warps_per_block: int
    occupancy_pct: float
    theoretical_pct: float
    registers: int
    active_blocks: int
    spill_pct: float
    mops: float
    paper_mops: float


def _run_table(structure_kind: str, kernel, paper_table,
               scale: Scale = PAPER) -> list[TableRow]:
    device = DeviceConfig.gtx970()
    key_range = min(TABLE_RANGE, max(scale.ranges))
    rows = []
    for wpb in WARPS_GRID:
        launch = LaunchConfig(warps_per_block=wpb)
        occ = compute_occupancy(device, launch, kernel)
        w = generate(MIX_10_10_80, key_range=key_range,
                     n_ops=scale.n_ops, seed=7)
        r = run_workload(structure_kind, w, launch=launch, device=device)
        timing_occ = r.occupancy
        spill_pct = _spill_pct(r, occ, kernel)
        rows.append(TableRow(
            warps_per_block=wpb,
            occupancy_pct=timing_occ * 100.0,
            theoretical_pct=occ.theoretical_occupancy * 100.0,
            registers=occ.allocated_regs,
            active_blocks=occ.active_blocks,
            spill_pct=spill_pct,
            mops=r.mops,
            paper_mops=paper_table[wpb]["mops"],
        ))
    return rows


def _spill_pct(run_result, occ, kernel) -> float:
    stats = run_result.stats
    spill = occ.spill_accesses_per_op * run_result.n_ops
    if kernel.intrinsic_spill > 0:
        spill += stats.transactions * kernel.intrinsic_spill \
            / (1.0 - kernel.intrinsic_spill)
    total = stats.transactions + spill
    return 100.0 * spill / total if total else 0.0


def table_5_1(scale: Scale = PAPER) -> list[TableRow]:
    """GFSL warps-per-block study (Table 5.1)."""
    return _run_table("gfsl", GFSL_KERNEL, paper_data.TABLE_5_1, scale)


def table_5_2(scale: Scale = PAPER) -> list[TableRow]:
    """M&C warps-per-block study (Table 5.2)."""
    return _run_table("mc", MC_KERNEL, paper_data.TABLE_5_2, scale)


def render(rows: list[TableRow], title: str, paper_table) -> str:
    headers = ["warps/blk", "occup%", "theo%", "regs", "blocks",
               "spill%", "MOPS", "paper-MOPS"]
    body = [[r.warps_per_block, r.occupancy_pct, r.theoretical_pct,
             r.registers, r.active_blocks, r.spill_pct, r.mops,
             r.paper_mops] for r in rows]
    note = ("\n  paper row reference: " + "; ".join(
        f"{w} warps → regs={paper_table[w]['registers']}, "
        f"blocks={paper_table[w]['blocks']}, occ={paper_table[w]['occupancy']}%"
        for w in WARPS_GRID))
    return render_table(title, headers, body) + note
