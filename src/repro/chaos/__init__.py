"""``repro.chaos`` — adversarial scheduling, fault injection, and
linearizability checking for the concurrent GFSL paths.

The engine backends exercise only the interleavings their schedulers
happen to produce; this package makes concurrency bugs *reproducible*
and *detectable*:

* :mod:`~repro.chaos.faults` — a seeded :class:`FaultInjector` threaded
  through the core lock/traversal/split/merge code and the interleaving
  scheduler.  It stalls lock holders, preempts teams between chunk
  reads, spuriously fails lock CAS, and skips scheduler turns — each an
  extra window for a real race to land in.
* :mod:`~repro.chaos.linearize` — a history recorder plus a Wing–Gong
  style linearizability checker (per-key decomposition, overlap-group
  interval pruning, memoized exact search) verified against a
  sequential map oracle.
* :mod:`~repro.chaos.watchdog` — bounded-retry/backoff accounting and a
  livelock detector that surfaces stuck-op diagnostics (holder, chunk,
  retry counts, zombie-chain length) instead of hanging.
* :mod:`~repro.chaos.hooks` — :class:`ChaosHooks`, which turn the
  engine's one interleaved wave loop into the ``interleaved-chaos``
  backend: injection, history recording and snapshot readers around
  the same schedule.  With zero faults configured it is event-for-event
  identical to ``interleaved``.
* :mod:`~repro.chaos.campaign` — seeded adversarial campaigns
  (``python -m repro chaos``) and a shrinker that reduces a failing
  seed to a minimal reproducing configuration.
* :mod:`~repro.chaos.retry` — the shared seeded
  :class:`~repro.chaos.retry.RetryPolicy` (bounded attempts,
  exponential backoff + jitter) behind both the core lock-retry bound
  and the serve frontend's flush retries.
* :mod:`~repro.chaos.serve_faults` — serve-level fault kinds (request
  bursts, stalled clients, frozen shards) for :mod:`repro.serve`
  overload campaigns.
"""

from .campaign import (CampaignConfig, CampaignReport, repro_command,
                       run_campaign, shrink_campaign)
from .faults import FAULT_KINDS, ChaosConfig, FaultInjector
from .hooks import ChaosHooks
from .retry import RetryPolicy
from .serve_faults import (SERVE_FAULT_KINDS, ServeChaosConfig,
                           ServeFaultInjector, ShardFrozen)
from .linearize import (HistoryEvent, HistoryRecorder, LinearizabilityReport,
                        SnapshotObservation, SnapshotViolation, Violation,
                        check_history, check_key_history)
from .watchdog import LivelockDetected, StuckOpDiagnostics, Watchdog

__all__ = [
    "FAULT_KINDS",
    "ChaosConfig",
    "FaultInjector",
    "RetryPolicy",
    "SERVE_FAULT_KINDS",
    "ServeChaosConfig",
    "ServeFaultInjector",
    "ShardFrozen",
    "HistoryEvent",
    "HistoryRecorder",
    "LinearizabilityReport",
    "SnapshotObservation",
    "SnapshotViolation",
    "Violation",
    "check_history",
    "check_key_history",
    "LivelockDetected",
    "StuckOpDiagnostics",
    "Watchdog",
    "ChaosHooks",
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
    "shrink_campaign",
    "repro_command",
]
