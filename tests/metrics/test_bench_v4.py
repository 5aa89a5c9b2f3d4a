"""Replay rows: the ``distribution`` dimension and gen-fallback residue.

Every grid row carries ``distribution`` (part of the row identity) and
``gen_fraction`` — the share of ops replayed through per-op generators
rather than the vectorized fast path; the markdown summary shows both.
"""

import pytest

from repro.metrics import bench as B


@pytest.fixture(scope="module")
def doc():
    out, _ = B.run_grid(["vectorized", "sequential"], ["gfsl"],
                        key_ranges=(512,), n_ops=60, seed=7)
    return out


@pytest.fixture(scope="module")
def hotspot_doc():
    out, _ = B.run_grid(["vectorized"], ["gfsl"], key_ranges=(512,),
                        n_ops=60, seed=7, distribution="hotspot")
    return out


class TestSchema:
    def test_schema_id_and_validation(self, doc):
        assert doc["schema"] == B.SCHEMA_ID
        assert B.validate_bench(doc) == []

    def test_rows_carry_distribution_and_gen_fraction(self, doc):
        for row in doc["rows"]:
            assert row["distribution"] == "uniform"
            assert isinstance(row["gen_fraction"], float)
            assert 0.0 <= row["gen_fraction"] <= 1.0
        by_backend = {r["backend"]: r for r in doc["rows"]}
        # Sequential replay is all-generator; vectorized mostly escapes.
        assert by_backend["sequential"]["gen_fraction"] == 1.0
        assert (by_backend["vectorized"]["gen_fraction"]
                < by_backend["sequential"]["gen_fraction"])


class TestMarkdown:
    def test_columns_present(self, doc):
        md = B.render_markdown(doc)
        assert "| dist |" in md and "| gen% |" in md
        assert "| uniform |" in md
        assert "| 100% |" in md            # sequential residue

    def test_hotspot_rows_labelled(self, hotspot_doc):
        assert "| hotspot |" in B.render_markdown(hotspot_doc)
