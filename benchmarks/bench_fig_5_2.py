"""Figure 5.2: GFSL/M&C throughput ratio as a function of key range.

Paper: GFSL is slower than M&C by up to 46% at 10K, within ~10% at 30K,
then ahead by 27%–1064% in the higher ranges; at 10M the speedup is
6.8x–11.6x (abstract).  The claim scorecard (``bench_claims.py``)
judges 'ratio-10k', 'ratio-30k', 'ratio-large', 'ratio-10m' and
'updates-flip-10k' on these series.
"""

from conftest import save_result
from repro.experiments import figures


def test_figure_5_2(benchmark, scale):
    save_result("fig_5_2", benchmark.pedantic(
        figures.render, args=("5.2", scale), rounds=1, iterations=1))
