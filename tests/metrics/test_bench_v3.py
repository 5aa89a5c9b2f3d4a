"""Replay rows: bottleneck attribution and the markdown ``bound`` column.

Every grid row carries non-null ``transactions_per_op``, ``bottleneck``
and the four cycle-attribution terms (the three roofline bounds plus the
serialization charge), and the markdown summary shows the binding bound.
"""

import pytest

from repro.metrics import bench as B

_CYCLE_FIELDS = ("issue_cycles", "bandwidth_cycles", "latency_cycles",
                 "serialization_cycles")
_BOUNDS = ("issue", "bandwidth", "latency", "serialization", "oom")


@pytest.fixture(scope="module")
def sharded_doc():
    doc, _ = B.run_grid(["vectorized"], ["gfsl"], key_ranges=(512,),
                        n_ops=60, seed=7, shard_counts=(1, 2))
    return doc


class TestCycleColumns:
    def test_rows_carry_nonnull_attribution(self, sharded_doc):
        assert B.validate_bench(sharded_doc) == []
        for row in sharded_doc["rows"]:
            assert row["transactions_per_op"] is not None
            assert row["bottleneck"] in _BOUNDS
            for f in _CYCLE_FIELDS:
                assert isinstance(row[f], float) and row[f] >= 0.0
            # The binding bound is consistent with the cycle terms.
            roof = max(row["issue_cycles"], row["bandwidth_cycles"],
                       row["latency_cycles"])
            if row["serialization_cycles"] > roof:
                assert row["bottleneck"] == "serialization"

    def test_markdown_shows_bound_column(self, sharded_doc):
        md = B.render_markdown(sharded_doc)
        assert "| bound |" in md
        assert any(f"| {row['bottleneck']} |" in md
                   for row in sharded_doc["rows"])
