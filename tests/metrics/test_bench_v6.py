"""Serve rows: the ``adaptive`` dimension and controller columns.

``adaptive`` (elasticity controller on/off) is part of the row identity
— static and adaptive runs of the same campaign are distinct rows, so a
BENCH file holds both and the regression gate never pairs them — and
serve rows record the controller's final state (``target_p99_us``,
``healthy_p99_us``, ``shard_rates``, ``shard_windows``).
"""

import pytest

from repro.chaos import ServeChaosConfig
from repro.metrics import bench as B
from repro.serve import (LoadConfig, ServeCampaignConfig, run_serve_campaign,
                         serve_bench_row)


def campaign(adaptive):
    load = LoadConfig(n_requests=150, n_clients=8, key_range=512,
                      rate=800.0, distribution="zipf", seed=11)
    chaos = ServeChaosConfig(freeze_shard=0, freeze_at=100,
                             freeze_steps=200, seed=11)
    return ServeCampaignConfig(structure="gfsl@2", load=load, chaos=chaos,
                               admit_rate=400.0, adaptive=adaptive,
                               coalesce_steps=200)


@pytest.fixture(scope="module")
def rows():
    out = {}
    for adaptive in (False, True):
        cfg = campaign(adaptive)
        report = run_serve_campaign(cfg)
        assert report.ok, report.summary()
        out[adaptive] = serve_bench_row(cfg, report)
    return out


@pytest.fixture(scope="module")
def doc(rows):
    return {"schema": B.SCHEMA_ID, "created_utc": "2026-08-09T00:00:00",
            "seed": 11, "n_ops": 150, "rows": [rows[False], rows[True]]}


class TestRowIdentity:
    def test_adaptive_is_part_of_the_key(self, rows):
        assert B.row_key(rows[False]) != B.row_key(rows[True])
        # The key ends (..., adaptive, elastic, source).
        assert B.row_key(rows[False])[-3] is False
        assert B.row_key(rows[True])[-3] is True
        assert B.row_key(rows[True])[-1] == "serve"

    def test_static_and_adaptive_coexist_in_one_file(self, rows, tmp_path):
        path = tmp_path / "BENCH_both.json"
        B.merge_rows(path, [rows[False]])
        B.merge_rows(path, [rows[True]])
        out = B.load_bench(path)
        assert len(out["rows"]) == 2
        assert B.validate_bench(out) == []
        # Re-merging one of them replaces, not duplicates.
        B.merge_rows(path, [dict(rows[True], mops=9.0)])
        out = B.load_bench(path)
        assert len(out["rows"]) == 2
        assert sorted(r["adaptive"] for r in out["rows"]) == [False, True]


class TestValidation:
    def test_v6_rows_are_valid(self, doc):
        assert doc["rows"][1]["adaptive"] is True
        assert B.validate_bench(doc) == []

    def test_regression_gate_never_pairs_static_with_adaptive(self, doc,
                                                              rows):
        baseline = dict(doc, rows=[rows[False]])
        new = dict(doc, rows=[dict(rows[True], mops=0.001)])
        out = B.compare_bench(new, baseline, threshold=0.2)
        assert not out["regressions"]
        assert len(out["unmatched"]) == 1


class TestMarkdown:
    def test_serve_table_has_mode_and_healthy_columns(self, doc):
        md = B.render_markdown(doc)
        assert "| mode |" in md and "| healthy p99 µs |" in md
        assert "| static |" in md and "| adaptive |" in md

    def test_regression_entries_label_adaptive_cells(self, doc, rows):
        comparison = {"regressions": [
            {"row": B.row_key(rows[True]), "old_mops": 2.0,
             "new_mops": 1.0, "delta": -0.5}],
            "improvements": [], "unmatched": []}
        md = B.render_markdown(doc, comparison, "old")
        assert "adaptive [serve]" in md


class TestRowContents:
    def test_adaptive_row_records_final_controller_state(self, rows):
        row = rows[True]
        assert row["adaptive"] is True
        assert row["target_p99_us"] == 150.0
        assert row["healthy_p99_us"] > 0
        assert len(row["shard_rates"]) == 2
        assert len(row["shard_windows"]) == 2
        assert all(r > 0 for r in row["shard_rates"])
        assert row["counters"]["ctrl_ticks"] > 0

    def test_static_row_reports_the_shared_bucket(self, rows):
        row = rows[False]
        assert row["adaptive"] is False
        assert row["shard_rates"] == [400.0, 400.0]
        assert row["shard_windows"] == [200, 200]
        assert row["counters"]["ctrl_ticks"] == 0
