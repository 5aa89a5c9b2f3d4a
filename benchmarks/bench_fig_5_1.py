"""Figure 5.1: GFSL-16 vs GFSL-32 vs M&C, [10,10,80].

Paper: the two chunk sizes perform similarly in small ranges; GFSL-32
outperforms GFSL-16 by up to 28% in the higher ranges (despite GFSL-16's
single-transaction chunks), and both beat M&C beyond the L2 regime.
The claim scorecard (``bench_claims.py``) judges 'gfsl32-beats-16' on
these series.
"""

from conftest import save_result
from repro.experiments import figures


def test_figure_5_1(benchmark, scale):
    save_result("fig_5_1", benchmark.pedantic(
        figures.render, args=("5.1", scale), rounds=1, iterations=1))
