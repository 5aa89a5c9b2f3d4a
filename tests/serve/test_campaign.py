"""Seeded overload campaigns end to end (the PR's acceptance shape).

The canonical scenario: a gfsl@4 frontend offered ~2x its sustainable
rate (zipf keys, burst waves, stalled clients) while one shard is
frozen mid-run — and still every admitted request terminates, the
executed history linearizes, and the structures stay valid.
"""

import pytest

from repro.chaos import ServeChaosConfig
from repro.serve import (LoadConfig, ServeCampaignConfig, latency_histogram,
                         run_serve_campaign)

CANONICAL_SEED = 20260808


def overload_config(n_requests=800, seed=CANONICAL_SEED, adaptive=False):
    load = LoadConfig(n_requests=n_requests, n_clients=16, key_range=1024,
                      mix=(25, 10, 60, 5), rate=2400.0,
                      deadline_steps=3000, distribution="zipf", seed=seed)
    chaos = ServeChaosConfig(bursts=2, burst_size=32, stalled_clients=2,
                             freeze_shard=1, freeze_at=400,
                             freeze_steps=600, seed=seed)
    return ServeCampaignConfig(
        structure="gfsl@4", load=load, chaos=chaos,
        coalesce_size=32, coalesce_steps=150, queue_depth=128,
        admit_rate=600.0, admit_burst=64.0,
        breaker_threshold=3, breaker_reset_steps=400,
        adaptive=adaptive, partitioner="range",
        retry_attempts=4, retry_base_steps=32)


@pytest.fixture(scope="module")
def report():
    return run_serve_campaign(overload_config())


@pytest.fixture(scope="module")
def full_reports():
    """Full-length canonical pair: the 800-request mini campaign ends
    before the step-400 freeze, so the adaptive-vs-static comparison
    needs the real horizon (several control periods across the frozen
    window)."""
    static = run_serve_campaign(overload_config(n_requests=4000))
    adaptive = run_serve_campaign(overload_config(n_requests=4000,
                                                  adaptive=True))
    return static, adaptive


class TestCanonicalOverload:
    def test_campaign_is_ok(self, report):
        assert report.ok, report.summary()
        assert report.hung is None
        assert report.invariant_error is None

    def test_every_admitted_request_terminates(self, report):
        st = report.stats
        assert report.unresolved == 0         # every future resolved
        assert st.terminated == st.submitted

    def test_history_linearizes(self, report):
        assert report.linearizable is True

    def test_overload_actually_bites(self, report):
        st = report.stats
        # ~2x overload against a 600/kstep bucket must reject a lot and
        # shed ranges — graceful degradation, not silent queue growth.
        assert st.rejected > st.completed / 2
        assert st.shed > 0
        assert st.completed > 0

    def test_frozen_shard_was_hit_and_ridden_out(self, report):
        assert report.fault_counts.get("frozen_shard", 0) >= 1
        assert report.fault_counts.get("request_burst", 0) == 2
        assert report.fault_counts.get("stalled_client", 0) == 2
        assert report.stats.retries + report.stats.breaker_opens >= 1

    def test_latency_is_measured_and_bounded(self, report):
        assert report.p50_us is not None and report.p99_us is not None
        assert 0 < report.p50_us <= report.p99_us
        # Admitted-request p99 stays bounded while the ladder sheds.
        assert report.p99_us < 3000

    def test_histogram_covers_every_sample(self, report):
        hist = latency_histogram(report.stats)
        assert sum(hist["point_us"].values()) == hist["point_samples"]
        assert hist["point_samples"] == len(report.stats.point_latencies)

    def test_summary_mentions_the_verdict(self, report):
        s = report.summary()
        assert "serve OK" in s and "p99=" in s


class TestAdaptiveBeatsStatic:
    """The elasticity acceptance shape: same seed, same offered load,
    same frozen shard — the controller must strictly improve both the
    healthy-shard tail and the goodput over the static ladder."""

    def test_adaptive_campaign_is_ok(self, full_reports):
        _static, adaptive = full_reports
        assert adaptive.ok, adaptive.summary()
        st = adaptive.stats
        assert st.terminated == st.submitted
        assert adaptive.linearizable is True

    def test_controller_actually_ran(self, full_reports):
        _static, adaptive = full_reports
        st = adaptive.stats
        assert st.ctrl_ticks > 0
        assert st.ctrl_rate_ups + st.ctrl_rate_downs > 0
        assert st.ctrl_rebalances >= 1          # frozen shard donated
        assert len(adaptive.ctrl_timeline) == 4 * st.ctrl_ticks
        assert len(adaptive.shard_rates) == 4
        assert len(adaptive.shard_windows) == 4

    def test_healthy_shard_p99_strictly_better(self, full_reports):
        static, adaptive = full_reports
        assert static.healthy_p99_us is not None
        assert adaptive.healthy_p99_us is not None
        assert adaptive.healthy_p99_us < static.healthy_p99_us, (
            adaptive.healthy_p99_us, static.healthy_p99_us)

    def test_goodput_strictly_better(self, full_reports):
        static, adaptive = full_reports
        assert adaptive.stats.completed > static.stats.completed

    def test_summary_shows_controller_state(self, full_reports):
        _static, adaptive = full_reports
        s = adaptive.summary()
        assert "controller:" in s and "healthy-shard p99=" in s

    def test_adaptive_is_deterministic(self):
        one = run_serve_campaign(overload_config(adaptive=True))
        two = run_serve_campaign(overload_config(adaptive=True))
        assert one.stats.counters() == two.stats.counters()
        assert one.shard_rates == two.shard_rates
        assert one.shard_windows == two.shard_windows
        assert one.ctrl_timeline == two.ctrl_timeline


class TestDeterminism:
    def test_same_seed_same_campaign(self, report):
        again = run_serve_campaign(overload_config())
        assert again.stats.counters() == report.stats.counters()
        assert again.total_steps == report.total_steps
        assert again.p50_us == report.p50_us
        assert again.p99_us == report.p99_us
        assert again.fault_counts == report.fault_counts

    def test_different_seed_different_campaign(self, report):
        other = run_serve_campaign(overload_config(seed=7))
        assert other.ok, other.summary()
        assert other.stats.counters() != report.stats.counters()
