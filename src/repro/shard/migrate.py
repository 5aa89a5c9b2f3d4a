"""Online key-range migration between co-located shards (DESIGN.md §16).

The :class:`MigrationExecutor` moves ``[lo, hi]`` from its owning
shard(s) to a destination shard while the serve frontend keeps
processing requests, in the classic copy/delta/flip shape:

1. **Capture + pin** — start a delta capture on the sharded map (every
   mutation landing in the range is logged), then read the range with
   the source's ``range_query``, one §13 snapshot: a consistent image
   at one epoch.
2. **Copy** — stream the frozen image toward the destination in slices,
   charging virtual time per slice (this phase is where a real system
   spends its bytes; here the cost model sleeps stand in for the DMA).
   Requests keep flowing — routing still points at the source, and
   their writes accumulate in the delta.
3. **Critical window** — a *synchronous* section (no awaits): stop the
   capture, replay the delta onto the copied image, read the source's
   live in-range items as the authoritative truth (any divergence is
   counted as ``reconciled`` — a protocol self-audit, expected 0 on
   the virtual loop where the window really is atomic), rebuild the
   destination with its own items plus the moved range and the source
   without the donated range, and publish the new routing generation.
   Because the rebuilds write through ``raw()`` (bypassing the epoch
   barrier), the window first waits for live snapshot pins to drain —
   bounded, then the attempt aborts.
4. **Charge** — sleep the window's modeled cost *after* the flip (the
   loop is cooperative, so a mid-window sleep would let requests in;
   deferring the charge keeps the window atomic at the price of
   attributing the stall to the migration task alone).

Failures are attempt-scoped: a frozen shard or an injected abort ends
the attempt with the destination untouched (nothing is mutated before
the critical window) and retries after a backoff, up to
``max_attempts``.  Every attempt appends a migration event row —
``migrations.events`` of a ``serve-bench --run-out`` summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bulk import plan_chunks, rebuild_into
from ..core.pool import OutOfChunks


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs of the migration protocol (all in virtual steps)."""

    max_attempts: int = 3          # attempts before giving up
    copy_slice: int = 256          # items copied per slice
    slice_steps: int = 25          # modeled cost of one copy slice
    window_base_steps: int = 20    # critical-window fixed cost
    window_delta_steps: int = 1    # plus this much per replayed delta op
    retry_backoff_steps: int = 200  # pause between attempts
    pin_defer_steps: int = 50      # pause while waiting for pins to drain
    pin_defer_tries: int = 100     # bounded wait; then the attempt aborts


class MigrationExecutor:
    """Executes online range migrations against one
    :class:`~repro.shard.sharded.ShardedMap`.

    ``loop`` is any object with ``now`` and awaitable ``sleep(steps)``
    (the serve :class:`~repro.serve.aio.VirtualLoop`); ``faults`` is an
    optional :class:`~repro.chaos.serve_faults.ServeFaultInjector`
    consulted for frozen shards and injected aborts; ``stats`` is an
    optional :class:`~repro.serve.request.ServeStats` whose migration
    counters this executor increments.
    """

    def __init__(self, sharded, loop, *, config: MigrationConfig | None = None,
                 faults=None, stats=None):
        self.sharded = sharded
        self.loop = loop
        self.config = config or MigrationConfig()
        self.faults = faults
        self.stats = stats
        #: One dict per attempt — the migration-event time series.
        self.events: list[dict] = []

    # -- helpers ---------------------------------------------------------
    def _frozen(self, sid: int) -> bool:
        return (self.faults is not None
                and self.faults.frozen(sid, self.loop.now))

    def _abort_injected(self) -> bool:
        return (self.faults is not None
                and getattr(self.faults, "abort_migration", None) is not None
                and self.faults.abort_migration())

    def _event(self, **kw) -> None:
        self.events.append({"step": int(self.loop.now), **kw})

    def _count(self, name: str, n: int = 1) -> None:
        if self.stats is not None and hasattr(self.stats, name):
            setattr(self.stats, name, getattr(self.stats, name) + n)

    # -- the protocol ----------------------------------------------------
    async def migrate(self, src_sid: int, dst_sid: int,
                      lo: int, hi: int) -> bool:
        """Move ``[lo, hi]`` (inclusive) from shard ``src_sid`` to shard
        ``dst_sid``; returns True when the new generation published."""
        sharded, cfg = self.sharded, self.config
        if src_sid == dst_sid:
            raise ValueError("source and destination shard are the same")
        src = sharded.shards[src_sid]
        dst = sharded.shards[dst_sid]
        base = dict(src=int(src_sid), dst=int(dst_sid),
                    lo=int(lo), hi=int(hi))

        for attempt in range(1, cfg.max_attempts + 1):
            if attempt > 1:
                self._count("migration_retries")
                await self.loop.sleep(cfg.retry_backoff_steps)
            if self._frozen(src_sid) or self._frozen(dst_sid):
                self._event(status="frozen", attempt=attempt, **base)
                continue

            # Phase 1: capture + pin.  The capture starts *before* the
            # snapshot pin so no mutation can fall between the frozen
            # image and the delta log.
            sharded.begin_delta_capture(lo, hi)
            try:
                frozen_items = src.range_query(lo, hi)
            except Exception:
                sharded.end_delta_capture()
                raise

            # Phase 2: copy, one costed slice at a time.  Nothing is
            # mutated yet, so an abort here leaves both shards clean.
            aborted = False
            n_slices = max(1, -(-len(frozen_items) // cfg.copy_slice))
            for _ in range(n_slices):
                await self.loop.sleep(cfg.slice_steps)
                if self._abort_injected():
                    aborted = True
                    break
            if aborted:
                sharded.end_delta_capture()
                self._count("migration_aborts")
                self._event(status="aborted", attempt=attempt,
                            frozen_items=len(frozen_items), **base)
                continue

            # Wait (bounded) for snapshot pins to drain — the window's
            # rebuilds bypass the epoch barrier and must not run under a
            # live pin.  The serve layer never holds a pin across an
            # await, so this resolves in practice.
            mgr = getattr(sharded.ctx, "_epochs", None)
            deferred = False
            for _ in range(cfg.pin_defer_tries):
                if mgr is None or not mgr.active_pins:
                    break
                await self.loop.sleep(cfg.pin_defer_steps)
                mgr = getattr(sharded.ctx, "_epochs", None)
            else:
                deferred = True
            if deferred:
                sharded.end_delta_capture()
                self._count("migration_aborts")
                self._event(status="aborted-pinned", attempt=attempt,
                            frozen_items=len(frozen_items), **base)
                continue

            # Phase 3: the critical window — synchronous from here to
            # the publish (no awaits), so nothing can interleave.
            delta = sharded.end_delta_capture()
            image = dict(frozen_items)
            for op, k, v in delta:
                if op == "insert":
                    image[k] = v
                else:
                    image.pop(k, None)
            truth = {k: v for k, v in src.items() if lo <= k <= hi}
            reconciled = sum(1 for k, v in truth.items()
                             if image.get(k) != v)
            reconciled += sum(1 for k in image if k not in truth)

            dst_image = {**dict(dst.items()), **truth}
            src_image = {k: v for k, v in src.items() if not lo <= k <= hi}
            try:
                # Pre-check both rebuilds before touching either shard,
                # so a capacity failure leaves everything as it was.
                for sl, kv in ((dst, dst_image), (src, src_image)):
                    need = plan_chunks(sl.geo, sl.layout.max_level, len(kv))
                    if need > sl.layout.capacity_chunks:
                        raise OutOfChunks(
                            f"migration needs {need} chunks on shard",
                            capacity=sl.layout.capacity_chunks,
                            allocated=0, live_keys=len(kv))
                with sharded.ctx.epochs.commit():
                    for sl, kv in ((dst, dst_image), (src, src_image)):
                        rebuild_into(sl, list(kv), list(kv.values()),
                                     rng=sl.rng)
            except OutOfChunks:
                self._count("migration_aborts")
                self._event(status="aborted-capacity", attempt=attempt,
                            frozen_items=len(frozen_items), **base)
                return False
            generation = sharded.routing.publish_move(
                lo, hi, dst_sid, step=self.loop.now)

            self._count("migrations")
            self._count("migrated_keys", len(truth))
            self._count("migration_delta_ops", len(delta))
            self._count("migration_reconciled", reconciled)
            self._event(status="published", attempt=attempt,
                        generation=generation,
                        frozen_items=len(frozen_items),
                        delta_ops=len(delta), moved_keys=len(truth),
                        reconciled=reconciled, **base)
            # Phase 4: charge the window's modeled cost after the flip
            # (see the module docstring for why not inside it).
            await self.loop.sleep(cfg.window_base_steps
                                  + cfg.window_delta_steps * len(delta))
            return True

        self._event(status="failed", attempt=cfg.max_attempts, **base)
        return False
