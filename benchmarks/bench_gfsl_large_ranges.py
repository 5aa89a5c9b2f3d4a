"""GFSL beyond M&C's memory wall: the 30M key range.

Section 5.3: "M&C's implementation was measured up to the 10M range ...
as it runs out of memory for larger structures.  In contrast, GFSL's
compact layout and partial reuse of chunks allow it to run up to the
range of 100M."  This bench reproduces that asymmetry: it sets M&C's
paper-scale allocation arithmetic next to the chunk footprint of real
GFSL builds up to 30M keys, and runs GFSL at 30M where M&C cannot.
"""

from conftest import save_result
from repro.analysis import render_table
from repro.engine import make_structure
from repro.gpu import DeviceConfig
from repro.gpu.memory import WORD_BYTES
from repro.workloads import (MIX_10_10_80, generate,
                             mc_paper_scale_feasible, run_workload)

BUILT_RANGES = (1_000_000, 10_000_000, 30_000_000)


def _gfsl_chunk_bytes(key_range: int) -> int:
    """Bytes of the chunks a prefilled GFSL build has handed out."""
    w = generate(MIX_10_10_80, key_range=key_range, n_ops=600, seed=1)
    sl = make_structure("gfsl", w)
    return sl.pool.allocated(sl.ctx.mem) * sl.geo.n * WORD_BYTES


def test_memory_wall(benchmark):
    built = benchmark.pedantic(
        lambda: {r: _gfsl_chunk_bytes(r) for r in BUILT_RANGES},
        rounds=1, iterations=1)
    rows = []
    for key_range in BUILT_RANGES + (100_000_000,):
        feasible = mc_paper_scale_feasible(key_range, MIX_10_10_80)
        gfsl = built.get(key_range)
        rows.append([f"{key_range:,}", "yes" if feasible else "OOM",
                     None if gfsl is None else gfsl / 2**20])
    text = render_table(
        "Memory wall — M&C feasibility vs measured GFSL chunk MiB "
        "(— = not built)",
        ["range", "M&C fits?", "GFSL MiB"], rows)
    save_result("memory_wall", text)
    assert rows[1][1] == "yes"      # mixed at 10M still fits (paper)
    assert rows[2][1] == "OOM"      # 30M does not
    # GFSL's 30M build fits the device M&C's 30M allocation overflows,
    # using well under a tenth of it.
    assert built[30_000_000] < DeviceConfig.gtx970().device_memory_bytes / 10


def test_gfsl_runs_at_30m(benchmark):
    w = generate(MIX_10_10_80, key_range=30_000_000, n_ops=600, seed=1)
    r = benchmark.pedantic(lambda: run_workload("gfsl", w),
                           rounds=1, iterations=1)
    m = run_workload("mc", w)
    text = render_table(
        "30M-key range (paper scale)",
        ["structure", "MOPS", "l2 hit", "trans/op"],
        [["GFSL-32", r.mops, r.l2_hit_rate, r.transactions_per_op],
         ["M&C", float("nan") if m.oom else m.mops,
          float("nan"), float("nan")]])
    save_result("gfsl_30m", text)
    assert r.mops > 0 and not r.oom
    assert m.oom
