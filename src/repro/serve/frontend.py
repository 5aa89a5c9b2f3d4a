"""The resilient serving frontend: request path, coalescer, robustness.

Many client coroutines submit single get/put/delete/range requests with
per-request deadlines.  Point requests are routed by the structure's
routing table to a per-shard bounded queue; a dispatcher task per shard
coalesces them — flush on ``coalesce_size`` or ``coalesce_steps``
timeout, whichever first — into one :class:`~repro.engine.OpBatch`
executed through ``execute_batch(commit="batch")`` (one epoch bump per
flush, Jiffy-style).  Range requests ride a separate lane: each runs on
its own snapshot cut and is the first thing shed under overload.

Request lifecycle (every admitted request terminates — enforced, not
assumed, by :class:`~repro.serve.aio.HangError`):

    submit ─ deadline? ─ slow client? ─ inflight cap? ─ ladder/bucket
           ─ breaker ─ enqueue (bounded backpressure wait)
    flush  ─ drop expired (never dispatched) ─ breaker ─ frozen-shard
           fault ─ execute ─ retry w/ seeded backoff ─ complete futures

Latency is measured on the :class:`~repro.metrics.spans.SpanTracer`
step clock: before a flush the tracer clock is advanced to virtual
"now", the backend then advances it per wave, and the loop absorbs the
device time back — so queueing delay and device time land on one
timeline (1 step = 1 µs).

With ``cfg.adaptive`` the static knobs become setpoints for an
:class:`~repro.serve.controller.ElasticityController`: per-shard token
buckets steered by AIMD against ``target_p99``, coalesce windows (and
the matching batch-size cap) tracking queue backlog, and rebalancing
grants that move a wedged shard's unused budget to healthy shards.
The controller is ticked from the submit/flush paths on the virtual
clock (never from wall time), and each tick lands a ``ctrl-s<sid>``
span plus a timeline entry in the metrics layer.

With ``cfg.elastic`` (on top of ``adaptive``) the controller's
telemetry additionally feeds a
:class:`~repro.serve.reshard.ReshardPolicy`: each tick the policy
checks for a sustainably hot shard and, at most one at a time, a
:class:`~repro.shard.migrate.MigrationExecutor` task moves the chosen
key range to a cold shard and publishes a new routing generation
(DESIGN.md §16).  In-flight batches keep routing against the
generation they were split under; requests still queued at the flip
are re-split under the new generation at flush time — which routes
them to the new owner, who by then holds the keys.
"""

from __future__ import annotations

import numpy as np

from ..chaos.linearize import HistoryRecorder
from ..chaos.retry import RetryPolicy
from ..core.locks import LockTimeout
from ..core.traversal import RestartStorm
from ..engine import make_backend
from ..engine.batch import OpBatch
from ..metrics import MetricsCollector
from ..metrics.spans import SpanTracer
from .admission import TokenBucket
from .aio import TIMED_OUT, Future, Queue, QueueFull, VirtualLoop
from .breaker import OPEN, CircuitBreaker
from .config import ServeCampaignConfig
from .controller import ElasticityController, derive_controller
from .errors import CircuitOpen, DeadlineExceeded, Overloaded
from .request import HISTORY_OP, OP_CODE, RANGE, Request, ServeStats

#: Typed faults a flush may surface that the retry policy can judge.
_FLUSH_FAULTS = (LockTimeout, RestartStorm)


def _raise_fault(dispatcher: Future) -> None:
    """Re-raise what killed a dispatcher from the loop, at the step it
    died: a fault the flush cannot type (outside ``_FLUSH_FAULTS``)
    ends the run, where the stranded requests would hang it."""
    if dispatcher.exception() is not None:
        raise dispatcher.exception()


#: Share of a token bucket's burst below which range requests are shed
#: (rung 4 of the admission ladder, DESIGN.md §14).
RANGE_RESERVE = 0.25

_STOP = object()


class ServeFrontend:
    """One serving frontend over a structure (GFSL or ShardedMap)."""

    def __init__(self, structure, loop: VirtualLoop,
                 cfg: ServeCampaignConfig, *,
                 retry: RetryPolicy | None = None,
                 recorder: HistoryRecorder | None = None,
                 faults=None, metrics: MetricsCollector | None = None):
        self.structure = structure
        self.loop = loop
        self.cfg = cfg
        self.backend = make_backend(cfg.backend)
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=cfg.retry_attempts, base_steps=cfg.retry_base_steps,
            seed=cfg.load.seed + 7)
        self.recorder = recorder
        self.faults = faults
        self.stats = ServeStats()
        self.outstanding = 0
        self._drain_waiters: list[Future] = []
        self._tasks = []
        self._started = False

        self.n_shards = getattr(structure, "n_shards", 1)
        self._queues = [Queue(loop, cfg.queue_depth)
                        for _ in range(self.n_shards)]
        self._rqueue = Queue(loop, cfg.range_depth)
        self.breakers = [CircuitBreaker(cfg.breaker_threshold,
                                        cfg.breaker_reset_steps)
                         for _ in range(self.n_shards)]

        # Admission: one shared bucket (static), or one per shard under
        # the elasticity controller (adaptive).  ``buckets[sid]`` is the
        # submit-path view either way.
        self.controller: ElasticityController | None = None
        self._occ_hwm = [0] * self.n_shards
        if cfg.adaptive:
            self.controller = ElasticityController(
                self.n_shards, cfg.admit_rate,
                derive_controller(cfg, self.n_shards), now=loop.now)
            share = cfg.admit_rate / self.n_shards
            burst = max(1.0, cfg.admit_burst / self.n_shards)
            self.buckets = [TokenBucket(share, burst, now=loop.now)
                            for _ in range(self.n_shards)]
        else:
            self.buckets = [TokenBucket(cfg.admit_rate, cfg.admit_burst,
                                        now=loop.now)] * self.n_shards

        # The config already refused elastic runs it can judge alone;
        # the routing table is only known from the structure handed in.
        if cfg.elastic and (self.n_shards < 2
                            or not structure.routing.range_expressible):
            raise ValueError(
                "--elastic needs at least 2 shards and a range-expressible "
                "routing table (range or sampled, not hash)")
        self.reshard_policy = None
        self.migrator = None
        #: Snapshot-consistency observations (range reads under audit).
        self.snapshot_observations: list = []
        self._migration_task = None
        if cfg.elastic:
            from ..shard.migrate import MigrationExecutor
            from .reshard import ReshardPolicy
            self.reshard_policy = ReshardPolicy(self.n_shards, cfg)
            self.migrator = MigrationExecutor(structure, loop,
                                              faults=faults,
                                              stats=self.stats)
            # Bounded per-shard sample of recently routed point keys —
            # the policy's split-point material.
            from collections import deque
            self._recent_keys = [deque(maxlen=128)
                                 for _ in range(self.n_shards)]
            # Per-shard admission rejections since the last tick: the
            # "sustained rate-cap" hot signal (an overloaded shard under
            # AIMD bounces arrivals at its bucket long before its p99
            # moves — the admitted few are served quickly).
            self._shard_rejects = [0] * self.n_shards

        if metrics is None:
            metrics = MetricsCollector(spans=SpanTracer())
        if metrics.spans is None:
            metrics.spans = SpanTracer()
        self.metrics = metrics
        structure.metrics = metrics

    # -- routing ----------------------------------------------------------
    def shard_of(self, key: int) -> int:
        if self.n_shards == 1:
            return 0
        return self.structure.shard_of(key)

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the per-shard point dispatchers and the range lane."""
        if self._started:
            return
        self._started = True
        for sid in range(self.n_shards):
            self._tasks.append(self.loop.create_task(
                self._point_dispatcher(sid), f"dispatch-{sid}"))
        self._tasks.append(self.loop.create_task(
            self._range_dispatcher(), "dispatch-range"))
        for task in self._tasks:
            task.add_done_callback(_raise_fault)

    async def drain(self) -> None:
        """Wait until every admitted request has terminated."""
        while self.outstanding > 0:
            fut = Future(self.loop)
            self._drain_waiters.append(fut)
            await fut

    async def close(self) -> None:
        """Stop the dispatchers (call after :meth:`drain`)."""
        for q in self._queues:
            await q.put(_STOP)
        await self._rqueue.put(_STOP)
        for t in self._tasks:
            await t
        self._tasks = []
        self._started = False

    # -- the elasticity controller ----------------------------------------
    def _maybe_tick(self) -> None:
        """Run a control period if the virtual clock crossed the next
        boundary.  Called from the submit and flush paths only, so the
        tick sequence is a pure function of the seeded campaign."""
        ctrl, now = self.controller, self.loop.now
        if ctrl is None or not ctrl.due(now):
            return
        depth = max(1, self.cfg.queue_depth)
        occupancies = [hwm / depth for hwm in self._occ_hwm]
        breaker_open = [b.state == OPEN for b in self.breakers]
        delta = ctrl.tick(now, occupancies, breaker_open)
        for sid, rate in enumerate(ctrl.effective_rates):
            self.buckets[sid].set_rate(rate, now)
        self._occ_hwm = [q.qsize() for q in self._queues]
        st = self.stats
        st.ctrl_ticks += 1
        st.ctrl_rate_ups += delta["ups"]
        st.ctrl_rate_downs += delta["downs"]
        st.ctrl_rebalances += delta["rebalanced"]
        spans = self.metrics.spans
        if spans is not None:
            start = now - ctrl.cfg.interval
            for sid in range(self.n_shards):
                spans.add(f"ctrl-s{sid}", start, ctrl.cfg.interval,
                          track=-2 - sid,
                          rate=round(ctrl.effective_rates[sid], 2),
                          window=ctrl.windows[sid],
                          occupancy=round(occupancies[sid], 3))
        self._maybe_reshard(ctrl)

    def _maybe_reshard(self, ctrl) -> None:
        """Feed this tick's telemetry to the reshard policy and launch
        at most one migration task at a time."""
        policy = self.reshard_policy
        if policy is None:
            return
        policy.note_tick(ctrl.timeline[-self.n_shards:],
                         rejects=self._shard_rejects)
        self._shard_rejects = [0] * self.n_shards
        if self._migration_task is not None \
                and not self._migration_task.done():
            return
        plan = policy.plan(self.structure.routing, self._recent_keys)
        if plan is None:
            return
        task = self.loop.create_task(
            self.migrator.migrate(plan.src, plan.dst, plan.lo, plan.hi),
            f"migrate-{plan.src}to{plan.dst}")
        self._migration_task = task
        self._tasks.append(task)

    def window_of(self, sid: int) -> int:
        """Current coalesce window for one shard's dispatcher."""
        if self.controller is not None:
            return self.controller.windows[sid]
        return self.cfg.coalesce_steps

    def batch_cap(self, sid: int) -> int:
        """Flush size cap, scaled with the adaptive window so widening
        under load really produces bigger (cheap, §13) flushes."""
        if self.controller is not None:
            scale = self.window_of(sid) / self.cfg.coalesce_steps
            return max(1, min(4 * self.cfg.coalesce_size,
                              int(round(self.cfg.coalesce_size * scale))))
        return self.cfg.coalesce_size

    # -- admission (the submit path) --------------------------------------
    def _overloaded_for_ranges(self, sid: int) -> bool:
        if self.cfg.queue_depth > 0:
            occ = (max(q.qsize() for q in self._queues)
                   / self.cfg.queue_depth)
            if occ >= self.cfg.shed_occupancy:
                return True
        return self.buckets[sid].level(self.loop.now) < RANGE_RESERVE

    def _reject(self, req: Request, exc) -> None:
        st = self.stats
        if isinstance(exc, Overloaded) and exc.reason == "shed-range":
            st.shed += 1
        else:
            st.rejected += 1
        reason = getattr(exc, "reason", type(exc).__name__)
        st.note_reason(reason)
        req.future.set_exception(exc)

    async def submit(self, req: Request) -> Future:
        """Admit (or reject) one request; always returns its future.

        The future terminates with the op's result, a typed rejection
        (:class:`Overloaded` / :class:`CircuitOpen`), a
        :class:`DeadlineExceeded`, or a typed structure fault — never
        hangs."""
        loop, st = self.loop, self.stats
        self._maybe_tick()
        req.submit_step = loop.now
        req.future = Future(loop)
        st.submitted += 1
        client = req.client

        if req.expired(loop.now):
            st.expired += 1
            req.future.set_exception(
                DeadlineExceeded(req.deadline, loop.now, "on arrival"))
            return req.future
        if client is not None and client.delivery is not None \
                and client.delivery.full():
            self._reject(req, Overloaded("slow-client"))
            return req.future
        if client is not None and client.inflight >= client.max_inflight:
            self._reject(req, Overloaded("client-inflight"))
            return req.future

        sid = self.shard_of(req.key)
        if self.cfg.elastic and req.kind != RANGE:
            self._recent_keys[sid].append(req.key)
        if req.kind == RANGE:
            if self._overloaded_for_ranges(sid):
                self._reject(req, Overloaded("shed-range"))
                return req.future
            if not self.buckets[sid].take(loop.now):
                self._reject(req, Overloaded("admission"))
                return req.future
            queue = self._rqueue
        else:
            breaker = self.breakers[sid]
            if not breaker.admits(loop.now):
                st.breaker_fastfail += 1
                st.note_reason("breaker")
                req.future.set_exception(CircuitOpen(sid, breaker.retry_at))
                return req.future
            if not self.buckets[sid].take(loop.now):
                if self.cfg.elastic:
                    self._shard_rejects[sid] += 1
                self._reject(req, Overloaded("admission"))
                return req.future
            queue = self._queues[sid]

        limit = loop.now + self.cfg.backpressure_steps
        if req.deadline is not None:
            limit = min(limit, req.deadline)
        stored = await queue.put(req, deadline=limit)
        if not stored:
            if req.expired(loop.now):
                st.expired += 1
                req.future.set_exception(
                    DeadlineExceeded(req.deadline, loop.now,
                                     "waiting for queue room"))
            else:
                self._reject(req, Overloaded("queue-full"))
            return req.future

        st.admitted += 1
        self.outstanding += 1
        if queue is not self._rqueue:
            self._occ_hwm[sid] = max(self._occ_hwm[sid], queue.qsize())
        if client is not None:
            client.inflight += 1
        return req.future

    # -- completion -------------------------------------------------------
    def _resolve(self, req: Request, result=None, exc=None) -> None:
        if exc is not None:
            req.future.set_exception(exc)
        else:
            req.future.set_result(result)
        self.outstanding -= 1
        client = req.client
        if client is not None:
            client.inflight -= 1
            if client.delivery is not None:
                try:
                    client.delivery.put_nowait((req, exc))
                except QueueFull:
                    self.stats.slow_client_drops += 1
        if self.outstanding == 0 and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for w in waiters:
                if not w.done():
                    w.set_result(None)

    # -- the coalescer ----------------------------------------------------
    async def _point_dispatcher(self, sid: int) -> None:
        queue = self._queues[sid]
        while True:
            first = await queue.get()
            if first is _STOP:
                return
            batch = [first]
            flush_at = self.loop.now + self.window_of(sid)
            stop = False
            while len(batch) < self.batch_cap(sid):
                nxt = await queue.get(deadline=flush_at)
                if nxt is TIMED_OUT:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                batch.append(nxt)
            await self._flush_points(sid, batch)
            if stop:
                return

    async def _range_dispatcher(self) -> None:
        while True:
            req = await self._rqueue.get()
            if req is _STOP:
                return
            self._execute_range(req)

    # -- flushing ---------------------------------------------------------
    def _drop_expired(self, reqs: list[Request]) -> list[Request]:
        now, st = self.loop.now, self.stats
        live = []
        for r in reqs:
            if r.expired(now):
                st.expired += 1
                self._resolve(r, exc=DeadlineExceeded(
                    r.deadline, now, "queued, never dispatched"))
            else:
                live.append(r)
        return live

    def _sync_clock_in(self) -> None:
        spans = self.metrics.spans
        if spans.clock < self.loop.now:
            spans.advance(self.loop.now - spans.clock)

    def _sync_clock_out(self) -> None:
        self.loop.now = max(self.loop.now, self.metrics.spans.clock)

    def _execute_points(self, reqs: list[Request]):
        ops = np.array([OP_CODE[r.kind] for r in reqs], dtype=np.int64)
        keys = np.array([r.key for r in reqs], dtype=np.int64)
        values = np.array([r.value for r in reqs], dtype=np.int64)
        batch = OpBatch(ops, keys, values)
        self._sync_clock_in()
        try:
            return self.structure.execute_batch(
                batch, backend=self.backend, commit="batch")
        finally:
            self._sync_clock_out()

    async def _flush_points(self, sid: int, reqs: list[Request]) -> None:
        loop, st = self.loop, self.stats
        breaker = self.breakers[sid]
        attempts = 0
        while True:
            reqs = self._drop_expired(reqs)
            if not reqs:
                return
            if not breaker.allow_flush(loop.now):
                st.breaker_fastfail += len(reqs)
                st.note_reason("breaker")
                for r in reqs:
                    self._resolve(r, exc=CircuitOpen(sid, breaker.retry_at))
                return

            err = None
            if self.faults is not None and self.faults.frozen(sid, loop.now):
                from ..chaos.serve_faults import ShardFrozen
                err = ShardFrozen(sid, loop.now)
            if err is None:
                try:
                    res = self._execute_points(reqs)
                except _FLUSH_FAULTS as exc:
                    err = exc

            if err is None:
                breaker.record_success()
                st.flushes += 1
                st.flushed_ops += len(reqs)
                st.gen_ops += res.gen_ops
                end = loop.now
                for r, value in zip(reqs, res.results):
                    result = bool(value)
                    if self.recorder is not None:
                        self.recorder.record(HISTORY_OP[r.kind], r.key,
                                             result, r.submit_step, end)
                    st.note_latency(sid, end - r.submit_step)
                    st.completed += 1
                    if self.controller is not None:
                        self.controller.observe(sid, end - r.submit_step)
                    self._resolve(r, result=result)
                self._maybe_tick()
                return

            was_open = breaker.state
            breaker.record_failure(loop.now)
            if breaker.state == "open" and was_open != "open":
                st.breaker_opens += 1
            attempts += 1
            if (self.retry.is_retryable(err) and self.retry.allows(attempts)
                    and breaker.state != "open"):
                st.retries += 1
                backoff = self.retry.backoff_steps(attempts)
                if backoff > 0:
                    await loop.sleep(backoff)
                continue
            st.failed += len(reqs)
            st.note_reason(type(err).__name__)
            for r in reqs:
                self._resolve(r, exc=err)
            self._maybe_tick()
            return

    # -- the range lane ---------------------------------------------------
    def _execute_range(self, req: Request) -> None:
        """Run one range query on its own snapshot cut.  The pin is
        taken first and released unconditionally — an expired request
        frees it without ever walking the structure."""
        loop, st = self.loop, self.stats
        snap = self.structure.begin_snapshot()
        pin_step = loop.now
        try:
            if req.expired(loop.now):
                st.expired += 1
                self._resolve(req, exc=DeadlineExceeded(
                    req.deadline, loop.now, "queued, snapshot released"))
                return
            tracer = self.structure.ctx.tracer
            before = tracer.stats.transactions
            rows = snap.range_query(req.key, req.hi, tracer=tracer)
            # Charge the frozen walk to the virtual clock: ~4 memory
            # transactions per device step, floor 1.
            loop.now += max(1, (tracer.stats.transactions - before) // 4)
            if self.cfg.snapshot_audit:
                # Snapshot-consistency material for the chaos checker:
                # this frozen window must equal some legal state within
                # the pin interval, migrations included.
                from ..chaos.linearize import SnapshotObservation
                self.snapshot_observations.append(SnapshotObservation(
                    keys=frozenset(k for k, _ in rows),
                    start=pin_step, end=loop.now,
                    lo=req.key, hi=req.hi))
            st.range_latencies.append(loop.now - req.submit_step)
            st.completed += 1
            self._resolve(req, result=rows)
        except _FLUSH_FAULTS as exc:
            st.failed += 1
            st.note_reason(type(exc).__name__)
            self._resolve(req, exc=exc)
        finally:
            snap.release()
