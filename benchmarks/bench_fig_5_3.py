"""Figure 5.3: throughput vs key range for the four mixed workloads.

Paper: GFSL's performance "does not change drastically as the range
increases" (≤ ~8% loss from 1M to 10M) while M&C "melts down quickly"
(69–75% loss over the same step); GFSL shows a contention dip at small
ranges that deepens with the update percentage.  The claim scorecard
(``bench_claims.py``) judges 'gfsl-flat' and 'dip' on these series.
"""

from conftest import save_result
from repro.experiments import figures


def test_figure_5_3(benchmark, scale):
    save_result("fig_5_3", benchmark.pedantic(
        figures.render, args=("5.3", scale), rounds=1, iterations=1))
