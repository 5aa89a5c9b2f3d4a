"""Deadline semantics (the PR's no-wasted-work guarantees).

Two load-bearing properties, each pinned at the byte/pin level rather
than just on counters:

* a request that expires while queued is **never dispatched** — the
  device memory image is byte-identical to before the submit;
* a range request that expires while queued releases its snapshot pin
  without walking the structure — the epoch manager returns to zero
  active pins.
"""

from repro.engine import make_structure
from repro.serve import (GET, PUT, RANGE, Request, ServeCampaignConfig,
                         ServeFrontend, VirtualLoop)
from repro.serve.aio import Future
from repro.serve.errors import DeadlineExceeded
from repro.workloads import MIX_10_10_80, generate


#: The serving policy these scenarios were written against.
OLD_FRONTEND_POLICY = dict(admit_rate=None, coalesce_steps=200,
                           breaker_threshold=4, breaker_reset_steps=2000)


def build(loop, structure="gfsl", **policy):
    w = generate(MIX_10_10_80, key_range=512, n_ops=64, seed=5)
    st = make_structure(structure, w, team_size=8, seed=0)
    cfg = ServeCampaignConfig(structure=structure,
                              **{**OLD_FRONTEND_POLICY, **policy})
    return ServeFrontend(st, loop, cfg)


class TestExpiredInQueue:
    def test_never_dispatched_memory_byte_identical(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=8, coalesce_steps=100)
        before = fe.structure.ctx.mem.raw().tobytes()

        async def main():
            fe.start()
            fut = await fe.submit(
                Request(kind=PUT, key=499, value=1, deadline=loop.now + 10))
            await fe.drain()
            await fe.close()
            return fut

        fut = loop.run_until_complete(main())
        exc = fut.exception()
        assert isinstance(exc, DeadlineExceeded)
        assert "never dispatched" in str(exc)
        assert fe.stats.expired == 1
        assert fe.stats.flushes == 0          # the batch emptied out
        # The put must not have touched the device: the whole word
        # array is byte-identical to the pre-submit image.
        assert fe.structure.ctx.mem.raw().tobytes() == before

    def test_live_requests_in_same_batch_still_execute(self):
        loop = VirtualLoop()
        fe = build(loop, coalesce_size=8, coalesce_steps=100)

        async def main():
            fe.start()
            doomed = await fe.submit(
                Request(kind=GET, key=10, deadline=loop.now + 10))
            live = await fe.submit(Request(kind=GET, key=11))
            await fe.drain()
            await fe.close()
            return doomed, live

        doomed, live = loop.run_until_complete(main())
        assert isinstance(doomed.exception(), DeadlineExceeded)
        assert isinstance(live.result(), bool)
        assert fe.stats.expired == 1
        assert fe.stats.completed == 1
        assert fe.stats.flushed_ops == 1      # only the live request ran


class TestExpiredRange:
    def test_snapshot_pin_released_without_walking(self):
        loop = VirtualLoop()
        fe = build(loop, structure="gfsl@2")
        mgr = fe.structure.ctx.epochs
        assert fe.structure.chunked
        assert mgr.active_pins == 0

        loop.now = 50
        req = Request(kind=RANGE, key=1, hi=64, deadline=10)
        req.submit_step = 0
        req.future = Future(loop)
        fe.outstanding = 1
        fe._execute_range(req)

        assert mgr.active_pins == 0           # pin taken, then freed
        exc = req.future.exception()
        assert isinstance(exc, DeadlineExceeded)
        assert "snapshot released" in str(exc)
        assert fe.stats.expired == 1
        assert fe.stats.range_latencies == [] # it never walked

    def test_live_range_also_leaves_no_pin(self):
        loop = VirtualLoop()
        fe = build(loop, structure="gfsl@2")
        mgr = fe.structure.ctx.epochs

        async def main():
            fe.start()
            fut = await fe.submit(Request(kind=RANGE, key=1, hi=64))
            await fe.drain()
            await fe.close()
            return fut

        fut = loop.run_until_complete(main())
        assert isinstance(fut.result(), list)
        assert mgr.active_pins == 0


class TestOtherStages:
    def test_expired_on_arrival(self):
        loop = VirtualLoop()
        fe = build(loop)
        loop.now = 100

        async def main():
            return await fe.submit(Request(kind=GET, key=10, deadline=100))

        fut = loop.run_until_complete(main())
        exc = fut.exception()
        assert isinstance(exc, DeadlineExceeded)
        assert "on arrival" in str(exc)
        assert fe.stats.admitted == 0 and fe.stats.expired == 1

    def test_deadline_bounds_the_backpressure_wait(self):
        loop = VirtualLoop()
        fe = build(loop, queue_depth=1, backpressure_steps=1000)

        async def main():
            await fe.submit(Request(kind=GET, key=10))
            return await fe.submit(
                Request(kind=GET, key=11, deadline=loop.now + 20))

        fut = loop.run_until_complete(main())
        assert loop.now == 20                 # deadline, not 1000
        exc = fut.exception()
        assert isinstance(exc, DeadlineExceeded)
        assert "queue room" in str(exc)
        assert fe.stats.expired == 1
