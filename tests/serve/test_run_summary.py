"""One serve-run summary: ``run_summary`` carries every value the four
old artifacts did.

``serve-bench --run-out DIR`` writes ``DIR/summary.json``.  The
histogram, BENCH-row, controller-series and migration-log writers it
replaced live on in :mod:`tests.serve.artifact_oracle`; here every
leaf they produce is looked up at its mapped path in the summary, on a
static frozen-shard ``gfsl@2`` campaign and on an elastic ``pq@4``
campaign with an injected migration abort.  The one value the summary
does not carry is a static run's per-shard "rates" and "windows": the
old writers made them up from the shared bucket.
"""

import json

import pytest

from repro.chaos import ServeChaosConfig
from repro.engine.interface import parse_structure_kind
from repro.serve import (LoadConfig, ServeCampaignConfig, run_serve_campaign,
                         run_summary)

from tests.serve.artifact_oracle import ARTIFACTS


def static_config():
    load = LoadConfig(n_requests=150, n_clients=8, key_range=512,
                      rate=800.0, distribution="zipf", seed=11)
    chaos = ServeChaosConfig(freeze_shard=0, freeze_at=100,
                             freeze_steps=200, seed=11)
    return ServeCampaignConfig(structure="gfsl@2", load=load, chaos=chaos,
                               admit_rate=400.0, coalesce_steps=200)


def elastic_config():
    load = LoadConfig(n_requests=600, n_clients=16, key_range=4_096,
                      mix=(30, 15, 50, 5), rate=1200.0,
                      deadline_steps=6000, distribution="front", seed=11)
    return ServeCampaignConfig(
        structure="pq@4", load=load,
        chaos=ServeChaosConfig(abort_migrations=1, seed=11),
        admit_rate=900.0, adaptive=True, control_interval=100,
        elastic=True, partitioner="range", headroom=2.0,
        snapshot_audit=True)


def as_json(doc):
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def runs():
    """``(summary, artifacts)`` of each campaign, as read back from JSON."""
    out = {}
    for name, config in (("static", static_config),
                         ("elastic", elastic_config)):
        report = run_serve_campaign(config())
        assert report.ok, report.summary()
        out[name] = (as_json(run_summary(report)),
                     {artifact: as_json(write(report))
                      for artifact, write in ARTIFACTS.items()})
    return out


@pytest.fixture(params=["static", "elastic"])
def run(request, runs):
    return runs[request.param]


def leaves(doc, path=()):
    """``(path, value)`` for every scalar of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, path + (i,))
    else:
        yield path, doc


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


#: BENCH-row fields stored at a summary path.
ROW_PATHS = {
    "structure": ("config", "structure"),
    "backend": ("config", "backend"),
    "key_range": ("config", "load", "key_range"),
    "n_ops": ("config", "load", "n_requests"),
    "distribution": ("config", "load", "distribution"),
    "adaptive": ("config", "adaptive"),
    "elastic": ("config", "elastic"),
    "target_p99_us": ("config", "target_p99"),
    "mops": ("totals", "goodput_mops"),
    "wall_seconds": ("totals", "wall_seconds"),
    "l2_hit_rate": ("totals", "l2_hit_rate"),
    "p50_us": ("latency", "p50_us"),
    "p99_us": ("latency", "p99_us"),
    "healthy_p99_us": ("latency", "healthy_p99_us"),
    "shard_rates": ("controller", "rates"),
    "shard_windows": ("controller", "windows"),
    "migration_events": ("migrations", "events"),
    **{name: ("counters", name) for name in (
        "rejected", "shed", "retries", "migrations", "migration_aborts",
        "migrated_keys")},
}

#: BENCH-row fields the row derived from values the summary stores.
ROW_DERIVED = {
    "mixture": lambda s: "[" + ",".join(
        str(m) for m in s["config"]["load"]["mix"]) + "]",
    "shards": lambda s: parse_structure_kind(s["config"]["structure"])[1],
    "gen_fraction": lambda s: (
        s["counters"]["gen_ops"] / s["counters"]["flushed_ops"]
        if s["counters"]["flushed_ops"] else 0.0),
    "model_seconds": lambda s: s["totals"]["total_steps"] * 1e-6,
    "transactions_per_op": lambda s: (
        s["totals"]["transactions"] / max(1, s["counters"]["completed"])),
}

#: Top-level fields of the controller series and the migration log.
SERIES_PATHS = {
    "seed": ("config", "load", "seed"),
    "adaptive": ("config", "adaptive"),
    "elastic": ("config", "elastic"),
    "target_p99_us": ("config", "target_p99"),
    "shard_rates": ("controller", "rates"),
    "shard_windows": ("controller", "windows"),
    "timeline": ("controller", "timeline"),
    "events": ("migrations", "events"),
    "routing_history": ("migrations", "routing_history"),
}


def summary_value(summary, artifact, path):
    """The summary's value for the artifact leaf at ``path``."""
    head, rest = path[0], path[1:]
    if artifact == "hist":
        return at(summary, ("latency", "histogram") + path)
    if artifact == "bench_row" and head == "counters":
        (name,) = rest
        if name == "seed":
            return at(summary, ("config", "load", "seed"))
        if name.startswith("fault_"):
            return summary["faults"][name[len("fault_"):]]
        return summary["counters"][name]
    if artifact == "bench_row" and head in ROW_DERIVED:
        return ROW_DERIVED[head](summary)
    if artifact == "bench_row":
        return at(summary, ROW_PATHS[head] + rest)
    if head in SERIES_PATHS:
        return at(summary, SERIES_PATHS[head] + rest)
    return summary["counters"][head]          # the migration counters


def made_up(summary, path):
    """A static run's shared-bucket "rates" and "windows"."""
    return (summary["controller"] is None
            and path[0] in ("shard_rates", "shard_windows"))


class TestEveryArtifactValueIsInTheSummary:
    @pytest.mark.parametrize("artifact", list(ARTIFACTS))
    def test_every_leaf_maps(self, run, artifact):
        summary, artifacts = run
        checked = 0
        for path, value in leaves(artifacts[artifact]):
            if (artifact, path) == ("bench_row", ("source",)):
                continue                       # the removed format's tag
            if made_up(summary, path):
                continue
            assert summary_value(summary, artifact, path) == value, path
            checked += 1
        assert checked > 0

    def test_only_the_static_rates_are_left_out(self, run):
        summary, artifacts = run
        made = [path for path, _ in leaves(artifacts["bench_row"])
                if made_up(summary, path)]
        if summary["config"]["adaptive"]:
            assert made == []
        else:
            assert {p[0] for p in made} == {"shard_rates", "shard_windows"}


class TestSummaryContents:
    def test_sections(self, run):
        summary, _ = run
        assert list(summary) == ["config", "verdict", "totals", "latency",
                                 "counters", "faults", "controller",
                                 "migrations"]
        assert summary["verdict"]["ok"] is True
        assert summary["verdict"]["linearizable"] is True
        hist = summary["latency"]["histogram"]
        assert sum(hist["point_us"].values()) == hist["point_samples"]

    def test_static_run_reports_the_shared_bucket(self, runs):
        summary, _ = runs["static"]
        assert summary["config"]["adaptive"] is False
        assert summary["config"]["admit_rate"] == 400.0
        assert summary["config"]["coalesce_steps"] == 200
        assert summary["controller"] is None
        assert summary["counters"]["ctrl_ticks"] == 0

    def test_frozen_run_is_marked_static(self, runs):
        summary, _ = runs["static"]
        assert summary["config"]["elastic"] is False
        assert summary["migrations"] is None
        assert summary["counters"]["migrations"] == 0
        assert summary["faults"]["frozen_shard"] >= 1

    def test_adaptive_run_records_final_controller_state(self, runs):
        summary, _ = runs["elastic"]
        ctrl = summary["controller"]
        assert summary["config"]["target_p99"] == 150.0
        assert summary["latency"]["healthy_p99_us"] > 0
        assert len(ctrl["rates"]) == len(ctrl["windows"]) == 4
        assert all(r > 0 for r in ctrl["rates"])
        assert ctrl["ticks"] == summary["counters"]["ctrl_ticks"] > 0
        assert len(ctrl["timeline"]) == 4 * ctrl["ticks"]

    def test_elastic_run_records_the_migrations(self, runs):
        summary, _ = runs["elastic"]
        mig = summary["migrations"]
        published = [e for e in mig["events"] if e["status"] == "published"]
        assert mig["migrations"] == len(published) \
            == len(mig["routing_history"]) >= 1
        assert mig["migration_aborts"] == summary["faults"][
            "migration_abort"] == 1
        for name, value in mig.items():
            if name not in ("events", "routing_history"):
                assert value == summary["counters"][name], name
