"""Telemetry-driven resharding: policy decisions + the elastic campaign.

The campaign tests pin the ISSUE acceptance criterion: on the canonical
seeded hot-shard campaign (pq shards under a front-loaded distribution
— the delete-min adversary) the elastic run must complete >=20% more
requests than the frozen-mapping run at equal offered load, with every
observation passing the linearizability + snapshot-consistency audit.
"""

import pytest

from repro.chaos import ServeChaosConfig
from repro.serve import (LoadConfig, ReshardPolicy, ServeCampaignConfig,
                         run_serve_campaign)
from repro.shard import RoutingTable

N_SHARDS = 4
KEY_RANGE = 4_096


def _entries(p99s, occupancy=None, breakers=None):
    occupancy = occupancy or [0.1] * N_SHARDS
    breakers = breakers or [False] * N_SHARDS
    return [{"shard": s, "rate": 200.0, "grant": 0.0, "window": 25,
             "occupancy": occupancy[s], "p99": p99s[s],
             "breaker_open": breakers[s]} for s in range(N_SHARDS)]


def _routing():
    return RoutingTable.range(N_SHARDS, KEY_RANGE)


def elastic_policy(**reshard):
    cfg = ServeCampaignConfig(structure=f"pq@{N_SHARDS}", adaptive=True,
                              elastic=True, target_p99=150.0, **reshard)
    return ReshardPolicy(N_SHARDS, cfg)


def _front_samples(hot=0, n=100):
    # Heat at the bottom of the hot shard's segment, like delete-min.
    samples = [[] for _ in range(N_SHARDS)]
    samples[hot] = [1 + (i % 40) for i in range(n)]
    return samples


class TestPolicy:
    def test_rate_cap_signal_fires_without_a_p99_excursion(self):
        policy = elastic_policy(reshard_hot_ticks=2)
        low = [40.0] * N_SHARDS          # admitted-request p99 is calm
        rejects = [120, 3, 2, 1]         # ...but shard 0 bounces arrivals
        for _ in range(2):
            policy.note_tick(_entries(low), rejects=rejects)
        plan = policy.plan(_routing(), _front_samples())
        assert plan is not None and plan.src == 0 and plan.dst != 0

    def test_scattered_rejections_are_not_a_hot_signal(self):
        policy = elastic_policy(reshard_hot_ticks=2)
        for _ in range(4):
            policy.note_tick(_entries([40.0] * N_SHARDS),
                             rejects=[10, 9, 10, 9])
        assert policy.plan(_routing(), _front_samples()) is None

    def test_p99_excursion_alone_is_hot(self):
        policy = elastic_policy(reshard_hot_ticks=2)
        hot = [400.0, 40.0, 40.0, 40.0]
        for _ in range(2):
            policy.note_tick(_entries(hot))
        plan = policy.plan(_routing(), _front_samples())
        assert plan is not None and plan.src == 0

    def test_one_hot_tick_is_not_sustained(self):
        policy = elastic_policy(reshard_hot_ticks=2)
        policy.note_tick(_entries([400.0, 40.0, 40.0, 40.0]))
        assert policy.plan(_routing(), _front_samples()) is None
        # A calm tick resets the streak.
        policy.note_tick(_entries([40.0] * N_SHARDS))
        policy.note_tick(_entries([400.0, 40.0, 40.0, 40.0]))
        assert policy.plan(_routing(), _front_samples()) is None

    def test_plan_donates_the_lower_half_of_the_hot_segment(self):
        policy = elastic_policy(reshard_hot_ticks=1)
        policy.note_tick(_entries([400.0, 40.0, 40.0, 40.0]))
        routing = _routing()
        (seg_lo, seg_hi, _own) = routing.segments(sid=0)[0]
        plan = policy.plan(routing, _front_samples())
        assert plan.lo == seg_lo
        assert plan.hi < seg_hi, "donated the whole segment"
        assert plan.hi <= 40, "split point is far above the traffic median"

    def test_cooldown_and_budget_bound_the_churn(self):
        policy = elastic_policy(reshard_hot_ticks=1, reshard_cooldown=2,
                                reshard_max_migrations=2)
        hot = _entries([400.0, 40.0, 40.0, 40.0])
        policy.note_tick(hot)
        assert policy.plan(_routing(), _front_samples()) is not None
        policy.note_tick(hot)
        assert policy.plan(_routing(), _front_samples()) is None, "cooldown"
        policy.note_tick(hot)
        policy.note_tick(hot)
        assert policy.plan(_routing(), _front_samples()) is not None
        for _ in range(4):
            policy.note_tick(hot)
        assert policy.plan(_routing(), _front_samples()) is None, "budget"

    def test_breaker_open_shards_are_neither_hot_nor_cold(self):
        policy = elastic_policy(reshard_hot_ticks=1)
        breakers = [False, True, False, False]
        # Shard 1's p99 is wild but its breaker is open: not a donor.
        policy.note_tick(_entries([400.0, 900.0, 40.0, 40.0],
                                  breakers=breakers))
        plan = policy.plan(_routing(), _front_samples())
        assert plan.src == 0
        assert plan.dst != 1, "picked a breaker-open destination"

    def test_too_few_samples_yield_no_plan(self):
        policy = elastic_policy(reshard_hot_ticks=1, reshard_min_keys=32)
        policy.note_tick(_entries([400.0, 40.0, 40.0, 40.0]))
        assert policy.plan(_routing(), _front_samples(n=5)) is None


# ---------------------------------------------------------------------------
# The canonical hot-shard campaign
# ---------------------------------------------------------------------------

def _campaign(elastic, chaos=None, seed=20260809):
    return ServeCampaignConfig(
        structure="pq@4",
        load=LoadConfig(n_requests=2000, n_clients=16, key_range=KEY_RANGE,
                        mix=(30, 15, 50, 5), rate=1200.0,
                        deadline_steps=6000, distribution="front",
                        zipf_s=1.0, seed=seed),
        chaos=chaos, admit_rate=900.0, adaptive=True, target_p99=150.0,
        control_interval=100, elastic=elastic, partitioner="range",
        headroom=2.0, snapshot_audit=True)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for elastic in (False, True):
        rep = run_serve_campaign(_campaign(elastic))
        assert rep.ok, rep.summary()
        out[elastic] = rep
    return out


class TestElasticCampaign:
    def test_both_runs_are_verified(self, reports):
        for rep in reports.values():
            assert rep.linearizable is True
            assert rep.hung is None and rep.unresolved == 0
            st = rep.stats
            assert st.terminated == st.submitted

    def test_frozen_mapping_never_migrates(self, reports):
        st = reports[False].stats
        assert st.migrations == 0 and st.migrated_keys == 0
        assert reports[False].migration_events == []
        assert reports[False].routing_history == []

    def test_elastic_run_migrates_off_the_hot_shard(self, reports):
        rep = reports[True]
        assert rep.stats.migrations >= 1
        published = [e for e in rep.migration_events
                     if e["status"] == "published"]
        assert len(published) == len(rep.routing_history) \
            == rep.stats.migrations
        # The delete-min adversary makes shard 0 hot by construction.
        assert published[0]["src"] == 0
        assert rep.stats.migration_reconciled == 0

    def test_elastic_completes_20pct_more_at_equal_offered_load(
            self, reports):
        static = reports[False].stats.completed
        elastic = reports[True].stats.completed
        assert static > 0
        gain = elastic / static - 1.0
        assert gain >= 0.20, (f"elastic gain {gain:+.1%} below the +20% "
                              f"acceptance floor ({static} -> {elastic})")


class TestMigrationChaos:
    def test_abort_and_freeze_mid_campaign_stay_verified(self):
        chaos = ServeChaosConfig(abort_migrations=1, freeze_shard=2,
                                 freeze_at=600, freeze_steps=400, seed=7)
        rep = run_serve_campaign(_campaign(True, chaos=chaos))
        assert rep.ok, rep.summary()
        st = rep.stats
        assert st.terminated == st.submitted
        assert st.migration_aborts >= 1, "the abort fault never fired"
        assert st.migrations >= 1, "no migration survived the chaos"
        statuses = [e["status"] for e in rep.migration_events]
        assert "aborted" in statuses and "published" in statuses
        assert rep.fault_counts.get("migration_abort") == 1
