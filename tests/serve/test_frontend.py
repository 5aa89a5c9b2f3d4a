"""ServeFrontend request path: coalescing, admission ladder, breaker.

Each test drives the frontend on a :class:`VirtualLoop`, so every
scenario is a deterministic function of its inputs — including the
chaos ones (frozen shards are step windows, not wall-clock races).
"""

import pytest

from repro.chaos.retry import RetryPolicy
from repro.chaos.serve_faults import (ServeChaosConfig, ServeFaultInjector,
                                      ShardFrozen)
from repro.core.locks import LockTimeout
from repro.core.pool import OutOfChunks
from repro.engine import make_structure
from repro.serve import (GET, PUT, RANGE, ClientState, LoadConfig, Request,
                         ServeCampaignConfig, ServeFrontend, VirtualLoop,
                         run_serve_campaign)
from repro.serve.aio import Queue
from repro.serve.errors import CircuitOpen, Overloaded
from repro.workloads import MIX_10_10_80, generate


#: The serving policy these scenarios were written against.
OLD_FRONTEND_POLICY = dict(admit_rate=None, coalesce_steps=200,
                           breaker_threshold=4, breaker_reset_steps=2000)


def build(loop, structure="gfsl", partitioner=None, retry=None, faults=None,
          **policy):
    w = generate(MIX_10_10_80, key_range=512, n_ops=64, seed=5)
    shard_kw = {} if partitioner is None else {"partitioner": partitioner}
    st = make_structure(structure, w, team_size=8, seed=0, **shard_kw)
    cfg = ServeCampaignConfig(structure=structure,
                              **{**OLD_FRONTEND_POLICY, **policy})
    return ServeFrontend(st, loop, cfg, retry=retry, faults=faults)


def frozen_frontend(loop, window, **kw):
    """A single-shard frontend whose shard 0 is frozen for ``window``."""
    chaos = ServeChaosConfig(frozen_windows=(window,))
    return build(loop, faults=ServeFaultInjector(chaos), **kw)


def get(key, **kw):
    return Request(kind=GET, key=key, **kw)


class TestCoalescer:
    def test_flush_on_size(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=4, coalesce_steps=10_000)

        async def main():
            fe.start()
            futs = [await fe.submit(get(10 + i)) for i in range(8)]
            await fe.drain()
            await fe.close()
            return futs

        futs = loop.run_until_complete(main())
        assert fe.stats.flushes == 2
        assert fe.stats.flushed_ops == 8
        assert fe.stats.completed == 8
        assert all(isinstance(f.result(), bool) for f in futs)

    def test_flush_on_timeout(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=32, coalesce_steps=50)

        async def main():
            fe.start()
            await fe.submit(get(10))
            await fe.submit(get(11))
            await fe.drain()
            await fe.close()

        loop.run_until_complete(main())
        assert fe.stats.flushes == 1          # one batch, not two
        assert fe.stats.completed == 2
        # The flush waited out the coalesce window before executing.
        assert min(fe.stats.point_latencies) >= 50

    def test_results_match_the_structure(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=2, coalesce_steps=20)
        fe.structure.insert(400, value=7)
        fe.structure.delete(401)

        async def main():
            fe.start()
            hit = await fe.submit(get(400))
            miss = await fe.submit(get(401))
            await fe.drain()
            await fe.close()
            return hit, miss

        hit, miss = loop.run_until_complete(main())
        assert hit.result() is True
        assert miss.result() is False


class TestAdmissionLadder:
    def test_token_bucket_rejects_past_burst(self):
        loop = VirtualLoop()
        fe = build(loop, admit_rate=1.0, admit_burst=1.0)

        async def main():
            first = await fe.submit(get(10))
            second = await fe.submit(get(11))
            return first, second

        first, second = loop.run_until_complete(main())
        assert not first.done()               # queued, awaiting dispatch
        exc = second.exception()
        assert isinstance(exc, Overloaded) and exc.reason == "admission"
        assert fe.stats.rejected == 1

    def test_backpressure_then_queue_full(self):
        loop = VirtualLoop()
        fe = build(loop, queue_depth=1, backpressure_steps=50)

        async def main():
            await fe.submit(get(10))
            return await fe.submit(get(11))

        fut = loop.run_until_complete(main())
        assert loop.now == 50                 # waited the bounded window
        exc = fut.exception()
        assert isinstance(exc, Overloaded) and exc.reason == "queue-full"

    def test_slow_client_rejected_at_submit(self):
        loop = VirtualLoop()
        fe = build(loop)
        client = ClientState(cid=0, delivery=Queue(loop, 1))
        client.delivery.put_nowait("unread response")

        async def main():
            return await fe.submit(get(10, client=client))

        fut = loop.run_until_complete(main())
        exc = fut.exception()
        assert isinstance(exc, Overloaded) and exc.reason == "slow-client"

    def test_client_inflight_cap(self):
        loop = VirtualLoop()
        fe = build(loop)
        client = ClientState(cid=0, max_inflight=2)

        async def main():
            futs = [await fe.submit(get(10 + i, client=client))
                    for i in range(3)]
            return futs

        futs = loop.run_until_complete(main())
        assert not futs[0].done() and not futs[1].done()
        exc = futs[2].exception()
        assert isinstance(exc, Overloaded) \
            and exc.reason == "client-inflight"

    def test_slow_client_response_dropped_not_wedged(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=2, coalesce_steps=20)
        client = ClientState(cid=0, delivery=Queue(loop, 1))

        async def main():
            fe.start()
            a = await fe.submit(get(10, client=client))
            b = await fe.submit(get(11, client=client))
            await fe.drain()
            await fe.close()
            return a, b

        a, b = loop.run_until_complete(main())
        # Both requests completed; the second response had nowhere to
        # go and was dropped (counted) instead of blocking the flusher.
        assert a.done() and b.done()
        assert fe.stats.completed == 2
        assert fe.stats.slow_client_drops == 1


class TestRangeShedding:
    def test_shed_on_point_queue_occupancy(self):
        loop = VirtualLoop()
        fe = build(loop, queue_depth=2, shed_occupancy=0.5)

        async def main():
            await fe.submit(get(10))          # occupancy hits 1/2
            return await fe.submit(Request(kind=RANGE, key=1, hi=64))

        fut = loop.run_until_complete(main())
        exc = fut.exception()
        assert isinstance(exc, Overloaded) and exc.reason == "shed-range"
        assert fe.stats.shed == 1 and fe.stats.rejected == 0

    def test_shed_when_token_reserve_is_gone(self):
        loop = VirtualLoop()
        fe = build(loop, admit_rate=1.0, admit_burst=1.0)

        async def main():
            await fe.submit(get(10))          # drains the bucket
            return await fe.submit(Request(kind=RANGE, key=1, hi=64))

        fut = loop.run_until_complete(main())
        exc = fut.exception()
        assert isinstance(exc, Overloaded) and exc.reason == "shed-range"

    def test_range_completes_when_healthy(self):
        loop = VirtualLoop()
        fe = build(loop)
        fe.structure.insert(100, value=1)
        fe.structure.insert(120, value=2)

        async def main():
            fe.start()
            fut = await fe.submit(Request(kind=RANGE, key=90, hi=130))
            await fe.drain()
            await fe.close()
            return fut

        fut = loop.run_until_complete(main())
        rows = fut.result()
        assert [k for k, _v in rows if k in (100, 120)] == [100, 120]
        assert fe.stats.completed == 1


class TestBreakerAndRetry:
    def test_retry_rides_out_a_frozen_window(self):
        loop = VirtualLoop()
        fe = frozen_frontend(
            loop, (0, 0, 50), coalesce_size=2, coalesce_steps=20,
            breaker_threshold=10,
            retry=RetryPolicy(max_attempts=5, base_steps=100, jitter=0.0,
                              seed=3))

        async def main():
            fe.start()
            a = await fe.submit(get(10))
            b = await fe.submit(get(11))
            await fe.drain()
            await fe.close()
            return a, b

        a, b = loop.run_until_complete(main())
        assert isinstance(a.result(), bool)
        assert isinstance(b.result(), bool)
        assert fe.stats.retries >= 1
        assert fe.stats.failed == 0
        assert fe.faults.counts["frozen_shard"] >= 1

    def test_breaker_opens_then_fast_fails(self):
        loop = VirtualLoop()
        fe = frozen_frontend(
            loop, (0, 0, 10**6), coalesce_size=4, coalesce_steps=20,
            breaker_threshold=2, breaker_reset_steps=10**5,
            retry=RetryPolicy(max_attempts=2, base_steps=10, jitter=0.0,
                              seed=1))

        async def main():
            fe.start()
            futs = [await fe.submit(get(10 + i)) for i in range(3)]
            await fe.drain()
            late = await fe.submit(get(20))
            return futs, late

        futs, late = loop.run_until_complete(main())
        assert all(isinstance(f.exception(), ShardFrozen) for f in futs)
        assert fe.stats.failed == 3
        assert fe.stats.retries == 1
        assert fe.stats.breaker_opens == 1
        # With the breaker open, new work fails fast at submit.
        assert isinstance(late.exception(), CircuitOpen)
        assert fe.stats.breaker_fastfail == 1

    def test_half_open_probe_recovers(self):
        loop = VirtualLoop()
        fe = frozen_frontend(
            loop, (0, 0, 100), coalesce_size=1, coalesce_steps=10,
            breaker_threshold=1, breaker_reset_steps=200,
            retry=RetryPolicy.bounded(1))

        async def main():
            fe.start()
            doomed = await fe.submit(get(10))
            await loop.sleep(400)      # past the window and the reset
            probe = await fe.submit(get(11))
            await fe.drain()
            await fe.close()
            return doomed, probe

        doomed, probe = loop.run_until_complete(main())
        assert isinstance(doomed.exception(), ShardFrozen)
        assert isinstance(probe.result(), bool)
        assert fe.breakers[0].state == "closed"
        assert fe.stats.breaker_opens == 1
        assert fe.stats.completed == 1


class TestUntypedFlushFault:
    """A flush fault the retry policy cannot judge ends the run with
    that exception, at the step it was raised, instead of stranding
    the dispatcher's requests until the loop reports a deadlock."""

    def test_out_of_chunks_ends_the_run_where_it_happened(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=4)
        raised = []
        execute = fe.structure.execute_batch

        def noting(*args, **kw):
            try:
                return execute(*args, **kw)
            except Exception as exc:
                raised.append((exc, loop.now))
                raise

        fe.structure.execute_batch = noting

        async def main():
            fe.start()
            for k in range(1000, 6000):
                await fe.submit(Request(kind=PUT, key=k, value=k))
            await fe.drain()
            await fe.close()

        with pytest.raises(OutOfChunks) as info:
            loop.run_until_complete(main())
        [(exc, step)] = raised
        assert info.value is exc
        assert str(info.value).startswith("chunk pool exhausted")
        assert loop.now == step
        # The flushes before it completed with today's accounting.
        assert fe.stats.completed == fe.stats.flushed_ops > 0
        assert fe.stats.failed == fe.stats.retries == 0

    def test_typed_faults_keep_their_accounting(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=2, coalesce_steps=20,
                   retry=RetryPolicy(max_attempts=2, base_steps=10,
                                     jitter=0.0, seed=1))
        calls = []

        def timing_out(batch, **kw):
            calls.append(loop.now)
            raise LockTimeout(7, 3)

        fe.structure.execute_batch = timing_out

        async def main():
            fe.start()
            futs = [await fe.submit(get(10 + i)) for i in range(2)]
            await fe.drain()
            await fe.close()
            return futs

        futs = loop.run_until_complete(main())
        assert len(calls) == 2
        assert all(isinstance(f.exception(), LockTimeout) for f in futs)
        assert fe.stats.retries == 1
        assert fe.stats.failed == 2
        assert fe.stats.reasons == {"LockTimeout": 1}

    def test_a_campaign_raises_the_original_fault(self, monkeypatch):
        boom = RuntimeError("flush 3 failed")
        real = ServeFrontend._execute_points
        calls = []

        def third_fails(self, reqs):
            calls.append(self.loop.now)
            if len(calls) == 3:
                raise boom
            return real(self, reqs)

        monkeypatch.setattr(ServeFrontend, "_execute_points", third_fails)
        cfg = ServeCampaignConfig(
            structure="gfsl@2", partitioner="range",
            load=LoadConfig(n_requests=200, n_clients=4, key_range=256,
                            seed=1))
        with pytest.raises(RuntimeError) as info:
            run_serve_campaign(cfg)
        assert info.value is boom
        assert len(calls) == 3


def test_every_submission_gets_a_future():
    """submit() never returns an unresolvable future: whatever path a
    request takes, the sum of terminal counters equals submissions."""
    loop = VirtualLoop()
    fe = build(loop, queue_depth=2, admit_rate=4.0, admit_burst=4.0,
               coalesce_size=2, coalesce_steps=30, backpressure_steps=40)
    client = ClientState(cid=0, max_inflight=3)

    async def main():
        fe.start()
        futs = []
        for i in range(12):
            futs.append(await fe.submit(get(50 + i, client=client)))
        futs.append(await fe.submit(Request(kind=RANGE, key=1, hi=64)))
        await fe.drain()
        await fe.close()
        return futs

    futs = loop.run_until_complete(main())
    assert all(f.done() for f in futs)
    st = fe.stats
    assert st.terminated == st.submitted == len(futs)


@pytest.mark.parametrize("kw,cause", [
    ({"admit_rate": 400.0}, "--adaptive"),
    ({"adaptive": True}, "--admit-rate"),
    ({"structure": "pq", "adaptive": True, "admit_rate": 600.0},
     "at least 2 shards"),
    ({"partitioner": "hash", "adaptive": True, "admit_rate": 400.0},
     "range-expressible"),
])
def test_elastic_without_its_preconditions_raises(kw, cause):
    """elastic=True is never silently dropped: a missing controller,
    admission rate, second shard or boundary table is a typed error
    naming what is unmet."""
    kw = {"structure": "gfsl@2", **kw}
    with pytest.raises(ValueError, match=cause):
        build(VirtualLoop(), elastic=True, **kw)


def test_adaptive_without_an_admission_rate_raises():
    """adaptive=True never silently falls back to static admission."""
    with pytest.raises(ValueError, match="--admit-rate"):
        build(VirtualLoop(), structure="gfsl@2", adaptive=True)
