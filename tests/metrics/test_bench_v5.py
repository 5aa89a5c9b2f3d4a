"""Serve campaign rows beside replay rows in one BENCH document.

``source`` ("replay" grid cells vs "serve" campaign rows) is part of
the row identity, so the regression gate never compares a serve row
against a replay row; serve rows carry the request-path fields and
replay rows need none of them; ``merge_rows`` adds serve rows to a file
by identity.
"""

import pytest

from repro.chaos import ServeChaosConfig
from repro.metrics import bench as B
from repro.serve import (LoadConfig, ServeCampaignConfig,
                         run_serve_campaign, serve_bench_row)


@pytest.fixture(scope="module")
def replay_doc():
    out, _ = B.run_grid(["vectorized"], ["gfsl"], key_ranges=(512,),
                        n_ops=60, seed=7)
    return out


@pytest.fixture(scope="module")
def serve_row():
    load = LoadConfig(n_requests=150, n_clients=8, key_range=512,
                      rate=800.0, distribution="zipf", seed=11)
    chaos = ServeChaosConfig(freeze_shard=0, freeze_at=100,
                             freeze_steps=200, seed=11)
    cfg = ServeCampaignConfig(structure="gfsl@2", load=load, chaos=chaos,
                              admit_rate=400.0)
    report = run_serve_campaign(cfg)
    assert report.ok, report.summary()
    return serve_bench_row(cfg, report)


def with_serve(replay_doc, serve_row):
    return dict(replay_doc, rows=replay_doc["rows"] + [serve_row])


class TestRowIdentity:
    def test_source_tags(self, replay_doc, serve_row):
        assert all(r["source"] == "replay" for r in replay_doc["rows"])
        assert serve_row["source"] == "serve"
        assert B.row_key(serve_row)[-1] == "serve"
        assert B.row_key(replay_doc["rows"][0])[-1] == "replay"

    def test_serve_never_collides_with_replay(self, replay_doc, serve_row):
        twin = dict(serve_row, source="replay")
        assert B.row_key(twin) != B.row_key(serve_row)


class TestValidation:
    def test_mixed_document_is_valid(self, replay_doc, serve_row):
        assert B.validate_bench(with_serve(replay_doc, serve_row)) == []

    def test_replay_rows_need_no_serve_fields(self, replay_doc):
        assert "p99_us" not in replay_doc["rows"][0]
        assert B.validate_bench(replay_doc) == []


class TestRegressionGate:
    def test_serve_rows_never_pair_with_replay_baseline(self, replay_doc,
                                                        serve_row):
        doc = with_serve(replay_doc, serve_row)
        out = B.compare_bench(doc, replay_doc, threshold=0.2)
        assert [u["row"][-1] for u in out["unmatched"]] == ["serve"]
        assert not out["regressions"]


class TestMarkdown:
    def test_serve_section_rendered(self, replay_doc, serve_row):
        md = B.render_markdown(with_serve(replay_doc, serve_row))
        assert "## Serve campaigns (request-path latency)" in md
        assert "| p50 µs |" in md.replace("  ", " ")

    def test_no_serve_section_without_serve_rows(self, replay_doc):
        assert "Serve campaigns" not in B.render_markdown(replay_doc)


class TestMergeServeRow:
    def test_creates_a_fresh_valid_file(self, serve_row, tmp_path):
        path = tmp_path / "BENCH_fresh.json"
        B.merge_rows(path, [serve_row])
        doc = B.load_bench(path)
        assert doc["schema"] == B.SCHEMA_ID
        assert B.validate_bench(doc) == []
        assert len(doc["rows"]) == 1

    def test_remerge_replaces_not_duplicates(self, serve_row, tmp_path):
        path = tmp_path / "BENCH_fresh.json"
        B.merge_rows(path, [serve_row])
        B.merge_rows(path, [dict(serve_row, mops=123.0)])
        doc = B.load_bench(path)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["mops"] == 123.0

    def test_merging_into_replay_doc_keeps_replay_rows(self, replay_doc,
                                                       serve_row,
                                                       tmp_path):
        path = tmp_path / "BENCH_mixed.json"
        B.write_bench(replay_doc, path)
        B.merge_rows(path, [serve_row])
        doc = B.load_bench(path)
        assert len(doc["rows"]) == len(replay_doc["rows"]) + 1
        assert B.validate_bench(doc) == []
        sources = [r["source"] for r in doc["rows"]]
        assert sources.count("serve") == 1
