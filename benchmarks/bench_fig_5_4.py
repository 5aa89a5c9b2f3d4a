"""Figure 5.4: single-op-type tests (contains-, insert-, delete-only).

Paper: GFSL wins every single-op test — Contains by up to 4.4x at large
ranges (2.9x at low), Insert by 3.5x–9.1x, Delete by 3.5x–12.6x; the
Contains-only test shows no contention dip for GFSL.  M&C's single-op
tests run only to the 3M range before exhausting device memory.  The
claim scorecard (``bench_claims.py``) judges the three '*-speedup'
claims, 'dip' and 'mc-oom' on these series.
"""

from conftest import save_result
from repro.experiments import figures


def test_figure_5_4(benchmark, scale):
    save_result("fig_5_4", benchmark.pedantic(
        figures.render, args=("5.4", scale), rounds=1, iterations=1))
