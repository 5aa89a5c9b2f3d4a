"""Elasticity-layer units and the serve-path bugfix sweep.

Covers the AIMD control law (convergence without oscillation across
seeds), rebalancing grants, the exclusive breaker probe (thundering-
herd regression), token-bucket clock discipline, and the nearest-rank
percentile — each a deterministic function of its inputs.
"""

import random
from dataclasses import replace

from repro.chaos.retry import RetryPolicy
from repro.chaos.serve_faults import (ServeChaosConfig, ServeFaultInjector,
                                      ShardFrozen)
from repro.engine import make_structure
from repro.serve import (GET, CircuitBreaker, ControllerConfig,
                         ElasticityController, Request, ServeCampaignConfig,
                         ServeFrontend, TokenBucket, VirtualLoop,
                         derive_controller, percentile)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serve.errors import CircuitOpen


#: The serving policy these scenarios were written against.
OLD_FRONTEND_POLICY = dict(admit_rate=None, coalesce_steps=200,
                           breaker_threshold=4, breaker_reset_steps=2000)


def build(loop, structure="gfsl", retry=None, faults=None, **policy):
    from repro.workloads import MIX_10_10_80, generate
    w = generate(MIX_10_10_80, key_range=512, n_ops=64, seed=5)
    st = make_structure(structure, w, team_size=8, seed=0)
    cfg = ServeCampaignConfig(structure=structure,
                              **{**OLD_FRONTEND_POLICY, **policy})
    return ServeFrontend(st, loop, cfg, retry=retry, faults=faults)


def get(key, **kw):
    return Request(kind=GET, key=key, **kw)


class TestPercentile:
    """Nearest-rank: smallest value with >= q of the mass at or below
    it.  The old banker's-rounded ``round(q*(n-1))`` rank under-read
    the tail on small samples."""

    def test_p99_of_60_samples_is_the_max(self):
        # ceil(0.99*60) = 60 -> the max; round(0.99*59) = 58 -> the
        # 59th of 60 (the old bug under-reported by one rank).
        assert percentile(list(range(1, 61)), 0.99) == 60.0

    def test_p99_of_100_samples(self):
        assert percentile(list(range(1, 101)), 0.99) == 99.0

    def test_p50_small_sets(self):
        assert percentile([1, 2, 3, 4], 0.50) == 2.0
        assert percentile([1, 2, 3], 0.50) == 2.0
        assert percentile([7], 0.50) == 7.0
        assert percentile([7], 0.99) == 7.0

    def test_order_independent_and_empty(self):
        assert percentile([3, 1, 2], 1.0) == 3.0
        assert percentile([], 0.99) is None


class TestTokenBucketClockDiscipline:
    def test_non_monotonic_now_never_rewinds(self):
        tb = TokenBucket(rate=100.0, burst=10.0, now=0)
        assert tb.take(100)                   # settle at step 100
        before = tb.tokens
        assert tb.take(40)                    # stale step: no credit...
        assert tb.tokens == before - 1.0      # ...just the spend
        assert tb._last == 100                # and no clock rewind

    def test_level_is_a_pure_read(self):
        tb = TokenBucket(rate=100.0, burst=10.0, now=0)
        for _ in range(8):
            tb.take(0)
        drained = tb.tokens
        # Projecting the refill at a future step commits nothing.
        lvl = tb.level(50)
        assert lvl > drained / tb.burst
        assert tb.level(50) == lvl            # repeatable
        assert tb.tokens == drained
        assert tb._last == 0
        # The next take at that step sees the same refill it projected.
        twin = TokenBucket(rate=100.0, burst=10.0, now=0)
        for _ in range(8):
            twin.take(0)
        assert tb.take(50) == twin.take(50)
        assert tb.tokens == twin.tokens

    def test_set_rate_settles_credit_at_the_old_rate(self):
        tb = TokenBucket(rate=100.0, burst=100.0, now=0)
        tb.tokens = 0.0
        tb.set_rate(1000.0, now=100)          # 100 steps @ 0.1/step
        assert tb.tokens == 10.0              # old-rate credit
        assert tb.take(200)                   # 100 steps @ 1.0/step
        assert tb.tokens == 100.0 - 1.0       # capped, then spent

    def test_deterministic_under_interleaved_reads(self):
        def run(with_reads):
            tb = TokenBucket(rate=50.0, burst=8.0, now=0)
            out = []
            for step in (0, 10, 10, 7, 40, 40, 200, 190, 500):
                if with_reads:
                    tb.level(step + 3)
                out.append(tb.take(step))
            return out, tb.tokens
        assert run(False) == run(True)


class TestBreakerProbeGate:
    def test_exactly_one_probe_carrier(self):
        b = CircuitBreaker(threshold=1, reset_steps=100)
        b.record_failure(0)
        assert b.state == OPEN
        assert not b.admits(50)               # window still open
        assert b.admits(100)                  # the probe carrier
        # Thundering-herd regression: the rest keep failing fast.
        assert not b.admits(100)
        assert not b.admits(150)
        b.record_success()
        assert b.state == CLOSED
        assert b.admits(151)

    def test_failed_probe_rearms_the_gate(self):
        b = CircuitBreaker(threshold=1, reset_steps=100)
        b.record_failure(0)
        assert b.admits(120)
        b.record_failure(120)                 # probe died
        assert b.state == OPEN
        assert not b.admits(150)
        assert b.admits(220)                  # next window, next carrier

    def test_flush_probe_also_claims_the_slot(self):
        b = CircuitBreaker(threshold=1, reset_steps=100)
        b.record_failure(0)
        assert b.allow_flush(110)             # queued flush is the probe
        assert b.state == HALF_OPEN
        assert not b.admits(110)              # submissions stay gated

    def test_no_thundering_herd_through_the_frontend(self):
        loop = VirtualLoop()
        chaos = ServeChaosConfig(frozen_windows=((0, 0, 100),))
        fe = build(loop, faults=ServeFaultInjector(chaos),
                   coalesce_size=1, coalesce_steps=10,
                   breaker_threshold=1, breaker_reset_steps=200,
                   retry=RetryPolicy.bounded(1))

        async def main():
            fe.start()
            doomed = await fe.submit(get(10))
            await loop.sleep(400)             # past freeze + reset
            herd = [await fe.submit(get(20 + i)) for i in range(4)]
            await fe.drain()
            await fe.close()
            return doomed, herd

        doomed, herd = loop.run_until_complete(main())
        assert isinstance(doomed.exception(), ShardFrozen)
        # One probe carrier completes; the rest fail fast instead of
        # queueing behind the probe and re-wedging the shard.
        outcomes = [f.exception() for f in herd]
        assert sum(e is None for e in outcomes) == 1
        assert sum(isinstance(e, CircuitOpen) for e in outcomes) == 3
        assert fe.breakers[0].state == CLOSED
        assert fe.stats.breaker_fastfail == 3


def drive(ctrl, cfg, seed, ticks, plant, occupancy=0.5, warmup=0):
    """Run the control loop against a synthetic plant: each period the
    shard observes 20 latency samples drawn around ``plant(rate)``."""
    rng = random.Random(seed)
    now, trajectory = 0, []
    for t in range(ticks):
        rate = ctrl.effective_rates[0]
        for _ in range(20):
            ctrl.observe(0, max(1, int(plant(rate)
                                       * (1 + rng.uniform(-0.05, 0.05)))))
        now += cfg.interval
        ctrl.tick(now, [occupancy], [False])
        if t >= warmup:
            trajectory.append(ctrl.rates[0])
    return trajectory


class TestControlLaw:
    def test_aimd_converges_without_oscillation_across_seeds(self):
        # Plant: observed p99 proportional to the admitted rate, so the
        # sustainable rate for target_p99=150 is ~150 tokens/kstep.
        cfg = ControllerConfig(target_p99=150.0, interval=100,
                               increase=5.0, decrease=0.7,
                               min_rate=1.0, max_rate=1000.0)
        for seed in (1, 2, 3):
            ctrl = ElasticityController(1, 100.0, cfg)
            traj = drive(ctrl, cfg, seed, ticks=70,
                         plant=lambda r: r, warmup=30)
            lo, hi = min(traj), max(traj)
            # Settles in the AIMD band around the sustainable rate: the
            # sawtooth never exceeds one multiplicative cut + the
            # additive climb, and never walks off to either clamp.
            assert 90.0 < lo and hi < 170.0, (seed, lo, hi)
            assert hi - lo <= (1 - cfg.decrease) * 160.0 + 2 * cfg.increase
            assert cfg.min_rate < lo and hi < cfg.max_rate

    def test_trajectory_is_deterministic(self):
        cfg = ControllerConfig(target_p99=150.0, interval=100, increase=5.0)
        runs = []
        for _ in range(2):
            ctrl = ElasticityController(1, 100.0, cfg)
            runs.append(drive(ctrl, cfg, 9, ticks=40, plant=lambda r: r))
        assert runs[0] == runs[1]

    def test_breaker_open_cuts_to_the_floor_and_donates(self):
        cfg = ControllerConfig(target_p99=150.0, interval=100, min_rate=5.0)
        ctrl = ElasticityController(4, 400.0, cfg)
        for sid in (0, 2, 3):
            for _ in range(5):
                ctrl.observe(sid, 50)
        delta = ctrl.tick(100, [0.4, 0.0, 0.4, 0.4],
                          [False, True, False, False])
        assert ctrl.rates[1] == cfg.min_rate
        assert delta["rebalanced"] == 1
        assert ctrl.grants[1] == 0.0
        share = 400.0 / 4
        donated = share - cfg.min_rate
        assert sum(ctrl.grants) == donated
        assert all(g == donated / 3 for sid, g in enumerate(ctrl.grants)
                   if sid != 1)
        assert ctrl.effective_rates[0] > share

    def test_windows_track_occupancy(self):
        cfg = ControllerConfig(target_p99=150.0, interval=100,
                               min_window=20, max_window=220)
        ctrl = ElasticityController(2, 100.0, cfg)
        ctrl.observe(0, 10)
        ctrl.observe(1, 10)
        ctrl.tick(100, [0.0, 1.0], [False, False])
        assert ctrl.windows[0] == 20          # idle: latency floor
        assert ctrl.windows[1] == 220         # saturated: batch it up
        ctrl.observe(0, 10)
        ctrl.tick(200, [0.5, 0.0], [False, False])
        assert ctrl.windows[0] == 120
        assert ctrl.windows[1] == 20          # shrinks back when idle

    def test_derive_scales_from_static_knobs(self):
        serve = ServeCampaignConfig(admit_rate=600.0, coalesce_steps=150,
                                    adaptive=True)
        cfg = derive_controller(serve, 4)
        assert cfg.increase == 600.0 / 4 / 8
        assert cfg.max_rate == 600.0
        assert cfg.min_window == 25 and cfg.max_window == 600
        assert derive_controller(replace(serve, min_window=40, max_window=80),
                                 4).max_window == 80


class TestHotShardRebalance:
    def test_hot_shard_absorbs_idle_budget(self):
        loop = VirtualLoop()
        fe = build(loop, structure="gfsl@4", adaptive=True,
                   admit_rate=400.0, admit_burst=32.0,
                   coalesce_size=4, coalesce_steps=60,
                   control_interval=100, target_p99=5000.0)
        hot = fe.shard_of(1)
        hotspot = [k for k in range(1, 512) if fe.shard_of(k) == hot][:32]
        assert len(hotspot) >= 8

        async def main():
            fe.start()
            futs = []
            for burst in range(6):            # span several periods
                for k in hotspot:
                    futs.append(await fe.submit(get(k)))
                await loop.sleep(120)
            await fe.drain()
            await fe.close()
            return futs

        futs = loop.run_until_complete(main())
        ctrl = fe.controller
        share = 400.0 / 4
        assert fe.stats.ctrl_ticks >= 3
        assert fe.stats.ctrl_rebalances >= 1
        # The cold shards' idle slices landed on the hot shard.
        assert ctrl.grants[hot] > 0.0
        assert ctrl.effective_rates[hot] > share
        for sid in range(4):
            if sid != hot:
                assert ctrl.grants[sid] == 0.0
        assert all(f.done() for f in futs)
        assert fe.stats.terminated == fe.stats.submitted
