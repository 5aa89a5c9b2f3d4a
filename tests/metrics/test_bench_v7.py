"""Serve rows: the ``elastic`` dimension and migration columns.

``elastic`` (telemetry-driven resharding on/off) is part of the row
identity — a resharded campaign and its frozen-mapping twin are
distinct rows, so one BENCH file holds both and the regression gate
never pairs them — and serve rows carry the migration counters and the
per-attempt ``migration_events`` list.
"""

import pytest

from repro.metrics import bench as B
from repro.serve import (LoadConfig, ServeCampaignConfig, run_serve_campaign,
                         serve_bench_row)


def campaign(elastic):
    load = LoadConfig(n_requests=400, n_clients=8, key_range=2_048,
                      mix=(30, 15, 50, 5), rate=1200.0,
                      deadline_steps=6000, distribution="front", seed=11)
    return ServeCampaignConfig(structure="pq@2", load=load,
                               admit_rate=600.0, adaptive=True,
                               control_interval=100, elastic=elastic,
                               partitioner="range", headroom=2.0)


@pytest.fixture(scope="module")
def rows():
    out = {}
    for elastic in (False, True):
        cfg = campaign(elastic)
        report = run_serve_campaign(cfg)
        assert report.ok, report.summary()
        out[elastic] = serve_bench_row(cfg, report)
    return out


@pytest.fixture(scope="module")
def doc(rows):
    return {"schema": B.SCHEMA_ID, "created_utc": "2026-08-09T00:00:00",
            "seed": 11, "n_ops": 400, "rows": [rows[False], rows[True]]}


class TestRowIdentity:
    def test_both_modes_coexist_in_one_file(self, rows, tmp_path):
        path = tmp_path / "BENCH_2026-08-09.json"
        for row in (rows[False], rows[True]):
            B.merge_rows(path, [row])
        doc = B.load_bench(path)
        assert doc["schema"] == B.SCHEMA_ID
        assert len(doc["rows"]) == 2
        comparison = B.compare_bench(doc, doc)
        assert comparison["regressions"] == []


class TestValidation:
    def test_v7_rows_are_valid(self, doc):
        assert B.validate_bench(doc) == []


class TestRowContents:
    def test_elastic_row_records_the_migrations(self, rows):
        row = rows[True]
        assert row["elastic"] is True
        assert row["migrations"] == len(
            [e for e in row["migration_events"]
             if e["status"] == "published"])
        for key in ("migrations", "migration_aborts", "migrated_keys"):
            assert isinstance(row[key], int) and row[key] >= 0

    def test_frozen_row_is_marked_static(self, rows):
        row = rows[False]
        assert row["elastic"] is False
        assert row["migrations"] == 0
        assert row["migration_events"] == []

    def test_markdown_tags_the_elastic_mode(self, doc):
        md = B.render_markdown(doc)
        assert "adaptive+elastic" in md
        lines = [ln for ln in md.splitlines() if "| adaptive |" in ln]
        assert lines, "frozen adaptive row missing from the serve table"
