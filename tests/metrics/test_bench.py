"""BENCH document engine: grid, schema, comparison, files, CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.metrics import bench as B

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
#: A committed baseline written under an older schema (read-only history).
OLD_SCHEMA_FILE = RESULTS / "BENCH_2026-08-08.json"


@pytest.fixture(scope="module")
def tiny_doc():
    doc, traces = B.run_grid(["sequential"], ["gfsl"], key_ranges=(256,),
                             n_ops=40, seed=7, team_size=8)
    return doc


@pytest.fixture(scope="module")
def shard_doc():
    doc, _ = B.run_grid(["vectorized"], ["gfsl"], key_ranges=(512,),
                        n_ops=60, seed=7, shard_counts=(1, 2))
    return doc


@pytest.fixture(scope="module")
def backend_pair_doc():
    doc, _ = B.run_grid(["vectorized", "sequential"], ["gfsl"],
                        key_ranges=(512,), n_ops=60, seed=7)
    return doc


@pytest.fixture(scope="module")
def hotspot_doc():
    doc, _ = B.run_grid(["vectorized"], ["gfsl"], key_ranges=(512,),
                        n_ops=60, seed=7, distribution="hotspot")
    return doc


_CYCLE_FIELDS = ("issue_cycles", "bandwidth_cycles", "latency_cycles",
                 "serialization_cycles")
_BOUNDS = ("issue", "bandwidth", "latency", "serialization", "oom")


class TestRunGrid:
    def test_schema_valid(self, tiny_doc):
        assert B.validate_bench(tiny_doc) == []

    def test_row_contents(self, tiny_doc):
        (row,) = tiny_doc["rows"]
        assert row["structure"] == "gfsl"
        assert row["backend"] == "sequential"
        assert (row["shards"], row["distribution"]) == (1, "uniform")
        assert row["mops"] > 0
        assert row["wall_seconds"] > 0
        assert row["gen_fraction"] == 1.0     # sequential: all generators
        assert row["counters"]["chunk_reads"] > 0
        assert all(isinstance(v, int) for v in row["counters"].values())

    def test_determinism(self, tiny_doc):
        doc2, _ = B.run_grid(["sequential"], ["gfsl"], key_ranges=(256,),
                             n_ops=40, seed=7, team_size=8)
        a = dict(tiny_doc, created_utc=None)
        b = dict(doc2, created_utc=None)
        # The simulator is pure: everything except wall clock matches.
        for ra, rb in zip(a.pop("rows"), b.pop("rows")):
            ra, rb = dict(ra), dict(rb)
            ra.pop("wall_seconds"), rb.pop("wall_seconds")
            assert ra == rb
        assert a == b

    def test_spans_collected_on_request(self):
        doc, traces = B.run_grid(["interleaved"], ["gfsl"],
                                 key_ranges=(256,), n_ops=30, seed=7,
                                 team_size=8, collect_spans=True)
        assert list(traces) == ["gfsl/interleaved/[10,10,80]@256"]
        assert len(next(iter(traces.values())).spans) > 0

    def test_shard_dimension(self, shard_doc):
        assert B.validate_bench(shard_doc) == []
        assert [row["shards"] for row in shard_doc["rows"]] == [1, 2]
        for row in shard_doc["rows"]:
            assert row["mops"] > 0
            assert 0.0 <= row["gen_fraction"] < 1.0
            # The binding bound is consistent with the cycle terms.
            roof = max(row["issue_cycles"], row["bandwidth_cycles"],
                       row["latency_cycles"])
            if row["serialization_cycles"] > roof:
                assert row["bottleneck"] == "serialization"

    def test_rows_carry_nonnull_attribution(self, shard_doc):
        assert B.validate_bench(shard_doc) == []
        for row in shard_doc["rows"]:
            assert row["transactions_per_op"] is not None
            assert row["bottleneck"] in _BOUNDS
            for f in _CYCLE_FIELDS:
                assert isinstance(row[f], float) and row[f] >= 0.0
            # The binding bound is consistent with the cycle terms.
            roof = max(row["issue_cycles"], row["bandwidth_cycles"],
                       row["latency_cycles"])
            if row["serialization_cycles"] > roof:
                assert row["bottleneck"] == "serialization"

    def test_schema_id_and_validation(self, backend_pair_doc):
        assert backend_pair_doc["schema"] == B.SCHEMA_ID
        assert B.validate_bench(backend_pair_doc) == []

    def test_rows_carry_distribution_and_gen_fraction(self,
                                                      backend_pair_doc):
        for row in backend_pair_doc["rows"]:
            assert row["distribution"] == "uniform"
            assert isinstance(row["gen_fraction"], float)
            assert 0.0 <= row["gen_fraction"] <= 1.0
        by_backend = {r["backend"]: r for r in backend_pair_doc["rows"]}
        # Sequential replay is all-generator; vectorized mostly escapes.
        assert by_backend["sequential"]["gen_fraction"] == 1.0
        assert (by_backend["vectorized"]["gen_fraction"]
                < by_backend["sequential"]["gen_fraction"])


def _fake_doc(mops=1.0, **fields):
    row = {"structure": "gfsl", "backend": "sequential",
           "mixture": "[10,10,80]", "key_range": 256, "n_ops": 10,
           "shards": 1, "distribution": "uniform", "gen_fraction": 1.0,
           "mops": mops, "model_seconds": 1.0, "wall_seconds": 1.0,
           "transactions_per_op": 1.0, "l2_hit_rate": 0.5, "counters": {},
           "bottleneck": "issue", "occupancy": 0.5, "oom": False,
           "issue_cycles": 1.0, "bandwidth_cycles": 1.0,
           "latency_cycles": 1.0, "serialization_cycles": 1.0, **fields}
    return {"schema": B.SCHEMA_ID, "created_utc": "t", "seed": 1,
            "n_ops": 10, "rows": [row]}


class TestValidate:
    def test_rejects_wrong_schema(self, tiny_doc):
        bad = dict(tiny_doc, schema="nope")
        assert any("schema" in e for e in B.validate_bench(bad))

    def test_rejects_bad_rows(self, tiny_doc):
        bad = dict(tiny_doc, rows=[dict(tiny_doc["rows"][0],
                                        mops=float("nan"))])
        assert any("mops" in e for e in B.validate_bench(bad))
        bad = dict(tiny_doc, rows=[])
        assert any("rows" in e for e in B.validate_bench(bad))
        bad = dict(tiny_doc,
                   rows=[dict(tiny_doc["rows"][0], counters={"x": 1.5})])
        assert any("counters" in e for e in B.validate_bench(bad))

    def test_rows_carry_exactly_the_listed_fields(self, tiny_doc):
        assert set(tiny_doc["rows"][0]) == set(B.ROW_FIELDS)

    @pytest.mark.parametrize("kind,field",
                             [("replay", f) for f in B.ROW_FIELDS])
    def test_every_listed_field_is_required(self, tiny_doc, kind, field):
        row = dict(tiny_doc["rows"][0])
        row.pop(field)
        errors = B.validate_bench(dict(tiny_doc, rows=[row]))
        assert any(f".{field} " in e for e in errors), errors

    @pytest.mark.parametrize("field,bad", [
        ("shards", 0), ("key_range", -1), ("n_ops", 1.5), ("oom", 0),
        ("bottleneck", 3), ("mops", True)])
    def test_malformed_values_rejected(self, field, bad):
        doc = _fake_doc(1.0)
        doc["rows"] = [dict(doc["rows"][0], **{field: bad})]
        errors = B.validate_bench(doc)
        assert any(f".{field} " in e for e in errors), errors


class TestRowIdentity:
    def test_identity_is_the_required_identity_fields(self, tiny_doc):
        row = tiny_doc["rows"][0]
        assert set(B.ROW_IDENTITY) <= set(B.ROW_FIELDS)
        assert B.row_key(row) == tuple(row[f] for f in B.ROW_IDENTITY)
        with pytest.raises(KeyError):        # no defaults, no padding
            B.row_key({k: v for k, v in row.items()
                       if k != "distribution"})

    @pytest.mark.parametrize("field,value", [
        ("shards", 4), ("distribution", "hotspot")])
    def test_identity_fields_never_pair(self, field, value):
        twin = _fake_doc(0.001, **{field: value})
        assert B.row_key(twin["rows"][0]) \
            != B.row_key(_fake_doc(100.0)["rows"][0])
        cmp = B.compare_bench(twin, _fake_doc(100.0))
        assert cmp["differences"] == [] and len(cmp["unmatched"]) == 1


#: The fields the gate compares as whole values, and a changed value of
#: each: everything but the identity, the host clock and the counters.
_CHANGED = {"gen_fraction": 0.5, "mops": None, "model_seconds": 2.0,
            "transactions_per_op": 2.0, "l2_hit_rate": 0.5000000000000001,
            "bottleneck": "bandwidth", "occupancy": 1.0, "oom": True,
            "issue_cycles": 2.0, "bandwidth_cycles": 2.0,
            "latency_cycles": 2.0, "serialization_cycles": 2.0}


class TestCompare:
    KEY = B.row_key(_fake_doc(1.0)["rows"][0])

    def test_regression_detected(self):
        """One counter off by one is exactly one difference."""
        cmp = B.compare_bench(
            _fake_doc(1.0, counters={"chunk_reads": 6, "splits": 2}),
            _fake_doc(1.0, counters={"chunk_reads": 5, "splits": 2}))
        assert cmp == {"differences": [(self.KEY, "counters.chunk_reads",
                                        5, 6)], "unmatched": []}

    def test_gated_fields_are_all_but_identity_clock_and_counters(self):
        assert set(_CHANGED) == set(B.ROW_FIELDS) - set(B.ROW_IDENTITY) \
            - {"wall_seconds", "counters"}

    @pytest.mark.parametrize("field", sorted(_CHANGED))
    def test_every_modeled_field_is_compared_exactly(self, field):
        old = _fake_doc()
        was = old["rows"][0][field]
        cmp = B.compare_bench(_fake_doc(**{field: _CHANGED[field]}), old)
        assert cmp["differences"] == [(self.KEY, field, was,
                                       _CHANGED[field])]

    def test_counter_present_on_one_side_only(self):
        cmp = B.compare_bench(_fake_doc(1.0, counters={"merges": 0}),
                              _fake_doc(1.0))
        assert cmp["differences"] == [(self.KEY, "counters.merges",
                                       None, 0)]
        cmp = B.compare_bench(_fake_doc(1.0),
                              _fake_doc(1.0, counters={"merges": 0}))
        assert cmp["differences"] == [(self.KEY, "counters.merges",
                                       0, None)]

    def test_wall_seconds_is_not_gated(self):
        cmp = B.compare_bench(_fake_doc(1.0, wall_seconds=9.0),
                              _fake_doc(1.0))
        assert cmp["differences"] == []

    def test_oom_rows_never_gate(self):
        """OOM on both sides (``mops: null``) is equal, not skipped."""
        oom = dict(mops=None, oom=True, bottleneck="oom")
        cmp = B.compare_bench(_fake_doc(**oom), _fake_doc(**oom))
        assert cmp == {"differences": [], "unmatched": []}

    def test_unmatched_new_row_is_listed_not_gated(self):
        new = _fake_doc(1.0)
        new["rows"].append(dict(new["rows"][0], backend="interleaved"))
        cmp = B.compare_bench(new, _fake_doc(1.0))
        assert cmp["differences"] == []
        assert cmp["unmatched"] == [B.row_key(new["rows"][1])]

    def test_refuses_a_baseline_of_another_schema(self):
        with pytest.raises(ValueError, match="repro-bench/6.*"
                           + B.SCHEMA_ID):
            B.compare_bench(_fake_doc(1.0), B.load_bench(OLD_SCHEMA_FILE))

    @pytest.mark.parametrize("bound,fields,warned", [
        ("bandwidth", {}, True), ("issue", {}, False),
        ("bandwidth", {"backend": "interleaved"}, False),
        ("oom", {"oom": True}, False)])
    def test_shard_bound_warnings(self, bound, fields, warned):
        doc = _fake_doc(1.0)
        doc["rows"].append(dict(doc["rows"][0], shards=4, bottleneck=bound,
                                **fields))
        warnings = B.shard_bound_warnings(doc)
        assert len(warnings) == warned
        if warned:
            assert "issue (S=1) -> bandwidth (S=4)" in warnings[0]


class TestFiles:
    def test_filename(self):
        assert B.bench_filename("2026-08-05") == "BENCH_2026-08-05.json"
        assert B.bench_filename().startswith("BENCH_2")

    def test_latest_bench(self, tmp_path):
        assert B.latest_bench(tmp_path) is None
        for day in ("2026-01-02", "2026-01-10", "2025-12-31"):
            B.write_bench(_fake_doc(1.0), tmp_path / f"BENCH_{day}.json")
        assert B.latest_bench(tmp_path).name == "BENCH_2026-01-10.json"
        assert B.latest_bench(
            tmp_path,
            exclude=tmp_path / "BENCH_2026-01-10.json"
        ).name == "BENCH_2026-01-02.json"

    def test_write_rejects_nan(self, tmp_path):
        doc = _fake_doc(float("nan"))
        with pytest.raises(ValueError):
            B.write_bench(doc, tmp_path / "BENCH_x.json")


class TestCommittedBaseline:
    """The newest committed BENCH file is readable by this build and is
    exactly the grid the CI bench-smoke job gates on."""

    def test_valid_and_covers_the_ci_grid(self):
        doc = B.load_bench(B.latest_bench(RESULTS))
        assert B.validate_bench(doc) == []
        keys = [B.row_key(r) for r in doc["rows"]]
        assert sorted(keys) == sorted(
            (structure, backend, "[10,10,80]", B.DEFAULT_RANGES[0],
             B.DEFAULT_OPS, shards, "uniform")
            for structure in ("gfsl", "mc")
            for backend in ("sequential", "interleaved", "vectorized")
            for shards in (1, 2, 4))

    def test_merge_baseline_covers_the_merge_grid_and_unlinks(self):
        """The CI merge grid's baseline: nine team-size-8 rows that
        merge chunks, with a zombie unlinked on every backend, so the
        equality gate sees the zombie counters move."""
        doc = B.load_bench(B.latest_bench(RESULTS / "merge"))
        assert B.validate_bench(doc) == []
        assert doc["team_size"] == 8
        assert sorted(B.row_key(r) for r in doc["rows"]) == sorted(
            ("gfsl", backend, "[20,40,40]", 256, B.DEFAULT_OPS, shards,
             "uniform")
            for backend in ("sequential", "interleaved", "vectorized")
            for shards in (1, 2, 4))
        for backend in ("sequential", "interleaved", "vectorized"):
            assert any(r["counters"]["zombies_unlinked"] > 0
                       for r in doc["rows"] if r["backend"] == backend)


class TestMarkdown:
    def test_table_and_regression_lines(self, tiny_doc):
        cmp = B.compare_bench(_fake_doc(counters={"chunk_reads": 6}),
                              _fake_doc(counters={"chunk_reads": 5}))
        md = B.render_markdown(tiny_doc, cmp, baseline_name="BENCH_old.json")
        assert "| structure | backend |" in md
        assert "| dist |" in md and "| gen% |" in md and "| bound |" in md
        assert "| uniform |" in md and "| 100% |" in md
        assert "## Regression check vs BENCH_old.json" in md
        assert "1 difference(s) on 1 paired row(s)" in md
        assert ("- gfsl/sequential [10,10,80] @256: counters.chunk_reads "
                "5 -> 6\n") in md
        assert "Regression check" not in B.render_markdown(tiny_doc)

    def test_values_print_as_json(self, tiny_doc):
        cmp = B.compare_bench(_fake_doc(None, bottleneck="oom"),
                              _fake_doc(2.5))
        md = B.render_markdown(tiny_doc, cmp)
        assert '@256: mops 2.5 -> null\n' in md
        assert '@256: bottleneck "issue" -> "oom"\n' in md

    def test_markdown_shows_bound_column(self, shard_doc):
        md = B.render_markdown(shard_doc)
        assert "| bound |" in md
        assert any(f"| {row['bottleneck']} |" in md
                   for row in shard_doc["rows"])

    def test_columns_present(self, backend_pair_doc):
        md = B.render_markdown(backend_pair_doc)
        assert "| dist |" in md and "| gen% |" in md
        assert "| uniform |" in md
        assert "| 100% |" in md            # sequential residue

    def test_hotspot_rows_labelled(self, hotspot_doc):
        assert "| hotspot |" in B.render_markdown(hotspot_doc)


class TestCli:
    ARGS = ["bench", "--backends", "sequential", "--structures", "gfsl",
            "--ranges", "256", "--ops", "40", "--team-size", "8"]

    def test_end_to_end(self, tmp_path, capsys):
        rc = cli_main(self.ARGS + ["--out-dir", str(tmp_path),
                                   "--markdown", str(tmp_path / "sum.md"),
                                   "--trace-out", str(tmp_path / "tr.json")])
        assert rc == 0
        out_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(out_files) == 1
        doc = B.load_bench(out_files[0])
        assert B.validate_bench(doc) == []
        assert (tmp_path / "sum.md").read_text().startswith("# repro bench")
        trace = json.loads((tmp_path / "tr.json").read_text())
        assert "traceEvents" in trace
        assert "wrote" in capsys.readouterr().out

    CELL = "gfsl/sequential [10,10,80] @256"

    def _baseline(self, tmp_path, edit):
        """Run the grid, then write its output with ``edit`` applied to
        the one row as the baseline; returns the baseline's path."""
        assert cli_main(self.ARGS + ["--out-dir", str(tmp_path),
                                     "--no-compare"]) == 0
        doc = B.load_bench(tmp_path / B.bench_filename())
        edit(doc["rows"][0])
        path = tmp_path / "BENCH_2000-01-01.json"
        B.write_bench(doc, path)
        return path

    def _gate(self, tmp_path, baseline, capsys):
        """Exit code and the summary's bullet lines against a baseline."""
        capsys.readouterr()
        rc = cli_main(self.ARGS + ["--out-dir", str(tmp_path),
                                   "--baseline", str(baseline)])
        out = capsys.readouterr().out
        return rc, [ln for ln in out.splitlines() if ln.startswith("- ")]

    def test_regression_gate_exit_codes(self, tmp_path, capsys):
        """One counter off by one fails with one line naming the row and
        the counter; a host-clock-only change passes."""
        def one_read_fewer(row):
            row["counters"]["chunk_reads"] -= 1
        baseline = self._baseline(tmp_path, one_read_fewer)
        was = B.load_bench(baseline)["rows"][0]["counters"]["chunk_reads"]
        assert self._gate(tmp_path, baseline, capsys) == (1, [
            f"- {self.CELL}: counters.chunk_reads {was} -> {was + 1}"])
        baseline = self._baseline(
            tmp_path, lambda row: row.update(wall_seconds=1234.5))
        assert self._gate(tmp_path, baseline, capsys) == (0, [])

    @pytest.mark.parametrize("edit,field", [
        (lambda row: row.update(l2_hit_rate=0.25), "l2_hit_rate"),
        (lambda row: row["counters"].update(not_a_counter=0),
         "counters.not_a_counter")])
    def test_one_difference_is_one_line(self, tmp_path, capsys, edit,
                                        field):
        rc, lines = self._gate(tmp_path, self._baseline(tmp_path, edit),
                               capsys)
        assert rc == 1 and len(lines) == 1
        assert lines[0].startswith(f"- {self.CELL}: {field} ")

    def test_unmatched_new_row_is_listed_and_passes(self, tmp_path, capsys):
        baseline = self._baseline(
            tmp_path, lambda row: row.update(backend="interleaved"))
        assert self._gate(tmp_path, baseline, capsys) == (0, [
            f"- new row, no baseline (not gated): {self.CELL}"])

    @pytest.mark.parametrize("flags,cause", [
        (["--structures", "foo"], "unknown structure kind 'foo'"),
        (["--shards", "0"], "need at least one shard"),
        (["--ranges", "0"], "key range too small"),
        (["--ops", "0"], "--ops must be at least 1 (got 0)")])
    def test_misconfiguration_is_a_one_line_usage_error(self, tmp_path,
                                                       capsys, flags,
                                                       cause):
        args = ["bench", "--backends", "sequential", "--ops", "10",
                "--out-dir", str(tmp_path)]
        assert cli_main(args + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bench: {cause}") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        rc = cli_main(self.ARGS + ["--out-dir", str(tmp_path),
                                   "--baseline", str(tmp_path / "nope.json")])
        assert rc == 2
        capsys.readouterr()

    def test_other_schema_baseline_is_usage_error(self, tmp_path, capsys):
        rc = cli_main(self.ARGS + ["--out-dir", str(tmp_path),
                                   "--baseline", str(OLD_SCHEMA_FILE)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"bench: baseline {OLD_SCHEMA_FILE} is repro-bench/6; this "
            f"build writes {B.SCHEMA_ID} — regenerate the baseline\n")

    def test_same_date_rerun_compares_against_older_file(self, tmp_path,
                                                         capsys):
        """Re-running on the same day must not compare against itself."""
        rc = cli_main(self.ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 0
        real = B.load_bench(next(tmp_path.glob("BENCH_2*.json")))
        fast = dict(real, rows=[dict(r, mops=r["mops"] * 10)
                                for r in real["rows"]])
        B.write_bench(fast, tmp_path / "BENCH_2000-01-01.json")
        # Without --baseline the newest *other* file is BENCH_2000-01-01
        # (today's own output is excluded) → the gate fires.
        rc = cli_main(self.ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 1
        capsys.readouterr()
