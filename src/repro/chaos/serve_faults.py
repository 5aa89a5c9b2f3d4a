"""Serve-level fault kinds: overload and partial-failure scenarios for
the :mod:`repro.serve` frontend.

The core :class:`~repro.chaos.faults.FaultInjector` perturbs *device*
schedules; this module perturbs the *request path* above it:

* ``request_burst`` — seeded burst waves stacked on top of the Poisson
  arrival process (the load generator folds them into its plan), so the
  admission ladder sees step-function overload, not just a high mean.
* ``stalled_client`` — chosen clients stop draining their delivery
  queues mid-run (and keep submitting), exercising slow-client
  isolation.
* ``frozen_shard`` — a shard refuses all flushes during a step window.
  The injection point is the **dispatch boundary**: the fault raises
  *before* any device work, so a frozen flush has zero partial effects
  and batch-level retries stay linearizable by construction.  The
  raised :class:`ShardFrozen` subclasses
  :class:`~repro.core.locks.LockTimeout`, so the shared
  :class:`~repro.chaos.retry.RetryPolicy` classifies it retryable
  without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.locks import LockTimeout

SERVE_FAULT_KINDS = ("request_burst", "stalled_client", "frozen_shard",
                     "migration_abort")


class ShardFrozen(LockTimeout):
    """A flush hit a chaos-frozen shard (raised before dispatch, so the
    batch had no effect).  Retryable like any lock timeout."""

    def __init__(self, shard: int, now: int):
        self.shard = int(shard)
        self.chunk = -1
        self.attempts = 0
        self.owner = None
        RuntimeError.__init__(
            self, f"shard {shard} frozen by chaos injection at step {now}")


@dataclass(frozen=True)
class ServeChaosConfig:
    """Seeded serve-level fault plan.

    ``bursts``/``burst_size`` add that many extra-request waves at
    seeded steps inside the load horizon; ``stalled_clients`` picks
    that many clients to stop consuming at a seeded point;
    ``freeze_shard``/``freeze_at``/``freeze_steps`` freeze one shard
    for a window (``frozen_windows`` lists extra explicit
    ``(shard, start, steps)`` windows); ``abort_migrations`` injects
    that many copy-phase aborts into the migration executor (each
    consumed abort kills one attempt before any shard is mutated, so
    the retry must re-copy from a fresh snapshot)."""

    bursts: int = 0
    burst_size: int = 64
    stalled_clients: int = 0
    freeze_shard: int | None = None
    freeze_at: int = 400
    freeze_steps: int = 600
    frozen_windows: tuple = ()
    abort_migrations: int = 0
    seed: int = 0

    def __post_init__(self):
        # A window of no steps freezes nothing; refused rather than
        # dropped, so a requested freeze always happens.
        if self.freeze_shard is not None and self.freeze_steps < 1:
            raise ValueError("--freeze-shard needs --freeze-steps of at "
                             f"least 1 (got {self.freeze_steps})")
        for shard, start, steps in self.frozen_windows:
            if steps < 1:
                raise ValueError(
                    f"frozen window ({shard}, {start}, {steps}) freezes no "
                    "step: --freeze-steps must be at least 1")

    def windows(self) -> list[tuple[int, int, int]]:
        out = [(int(s), int(a), int(n)) for s, a, n in self.frozen_windows]
        if self.freeze_shard is not None:
            out.append((int(self.freeze_shard), int(self.freeze_at),
                        int(self.freeze_steps)))
        return out

    def frozen_shard_ids(self) -> tuple[int, ...]:
        """Shards frozen at any point in the plan (for healthy-shard
        latency slices in bench reports)."""
        return tuple(sorted({s for s, _a, _n in self.windows()}))

    @property
    def any_faults(self) -> bool:
        return bool(self.bursts or self.stalled_clients or self.windows()
                    or self.abort_migrations)


@dataclass
class ServeFaultInjector:
    """Runtime side of :class:`ServeChaosConfig`: the frozen-shard
    predicate the frontend consults at each flush, plus hit counters
    (deterministic — queried at deterministic virtual instants)."""

    config: ServeChaosConfig
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        self._windows = self.config.windows()
        self._aborts_left = int(self.config.abort_migrations)
        self.counts = {kind: 0 for kind in SERVE_FAULT_KINDS}

    def frozen(self, shard: int, now: int) -> bool:
        for s, start, steps in self._windows:
            if s == shard and start <= now < start + steps:
                self.counts["frozen_shard"] += 1
                return True
        return False

    def abort_migration(self) -> bool:
        """Consume one injected migration abort (True for the first
        ``abort_migrations`` calls — deterministic: the executor polls
        at deterministic virtual instants)."""
        if self._aborts_left <= 0:
            return False
        self._aborts_left -= 1
        self.counts["migration_abort"] += 1
        return True

    def note(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n
