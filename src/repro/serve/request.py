"""Request, per-client state, and the frontend's counters.

A :class:`Request` is a single get/put/delete/range with an absolute
step deadline.  ``get``/``put``/``delete`` map onto the set interface
the structures implement (``contains``/``insert``/``delete`` — the
paper's API), which is also exactly what the linearizability checker's
sequential oracle replays; ``range`` runs on a snapshot cut and is the
first thing the degradation ladder sheds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.constants import check_key, check_value
from ..engine.batch import OP_CONTAINS, OP_DELETE, OP_INSERT
from .aio import Queue

GET = "get"
PUT = "put"
DELETE = "delete"
RANGE = "range"
KINDS = (GET, PUT, DELETE, RANGE)
POINT_KINDS = (GET, PUT, DELETE)

#: Point-request kind → OpBatch op code.
OP_CODE = {GET: OP_CONTAINS, PUT: OP_INSERT, DELETE: OP_DELETE}
#: Point-request kind → history-event op name (checker oracle names).
HISTORY_OP = {GET: "contains", PUT: "insert", DELETE: "delete"}


@dataclass
class ClientState:
    """Per-client bookkeeping: the bounded delivery queue (responses)
    and the in-flight cap.  A client that stops draining ``delivery``
    is *slow*: responses to it are dropped (counted) and its new
    submissions are rejected, so one stalled reader cannot wedge the
    server — slow-client isolation."""

    cid: int
    delivery: Queue | None = None
    max_inflight: int = 64
    inflight: int = 0
    stalled: bool = False


@dataclass
class Request:
    kind: str
    key: int
    value: int = 0
    hi: int | None = None               # inclusive range upper bound
    deadline: int | None = None         # absolute step; None = no deadline
    client: ClientState | None = None
    submit_step: int = -1
    future: object = None               # aio.Future, set by submit()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind == RANGE and self.hi is None:
            raise ValueError("range request needs hi")
        # Client input enters here, not in a flush other requests share.
        check_key(self.key)
        if self.kind == PUT:
            check_value(self.value)
        elif self.kind == RANGE:
            check_key(self.hi)

    def expired(self, now: int) -> bool:
        return self.deadline is not None and self.deadline <= now


@dataclass
class ServeStats:
    """Deterministic counters for one frontend lifetime (latencies are
    in steps; 1 step = 1 µs on the span-tracer clock)."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0            # executed, result delivered
    rejected: int = 0             # typed Overloaded / CircuitOpen
    shed: int = 0                 # range queries shed by the ladder
    expired: int = 0              # DeadlineExceeded (any stage)
    failed: int = 0               # typed fault surfaced after retries
    retries: int = 0              # flush attempts beyond the first
    breaker_fastfail: int = 0     # failed fast on an open breaker
    breaker_opens: int = 0
    slow_client_drops: int = 0    # responses dropped on a full delivery
    flushes: int = 0
    flushed_ops: int = 0
    gen_ops: int = 0              # generator-fallback ops inside flushes
    ctrl_ticks: int = 0           # elasticity-controller control periods
    ctrl_rate_ups: int = 0        # per-shard additive rate increases
    ctrl_rate_downs: int = 0      # per-shard multiplicative back-offs
    ctrl_rebalances: int = 0      # ticks that re-granted idle tokens
    migrations: int = 0           # published routing generations
    migration_aborts: int = 0     # attempts ended before the flip
    migration_retries: int = 0    # attempts beyond each first
    migrated_keys: int = 0        # keys moved across all migrations
    migration_delta_ops: int = 0  # delta ops replayed in windows
    migration_reconciled: int = 0 # delta/truth divergences (audit; 0)
    reasons: dict = field(default_factory=dict)
    point_latencies: list = field(default_factory=list)
    range_latencies: list = field(default_factory=list)
    #: Per-shard completed point latencies (shard id → list of steps),
    #: the healthy-shard-p99 material for frozen-shard campaigns.
    shard_latencies: dict = field(default_factory=dict)

    def note_reason(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def note_latency(self, sid: int, steps: int) -> None:
        self.point_latencies.append(steps)
        self.shard_latencies.setdefault(sid, []).append(steps)

    @property
    def terminated(self) -> int:
        """Requests that reached *some* terminal state."""
        return (self.completed + self.rejected + self.shed
                + self.expired + self.failed + self.breaker_fastfail)

    def counters(self) -> dict:
        """Integer counter view (bench-row / report material)."""
        out = {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "expired": self.expired,
            "failed": self.failed,
            "retries": self.retries,
            "breaker_fastfail": self.breaker_fastfail,
            "breaker_opens": self.breaker_opens,
            "slow_client_drops": self.slow_client_drops,
            "flushes": self.flushes,
            "flushed_ops": self.flushed_ops,
            "gen_ops": self.gen_ops,
            "ctrl_ticks": self.ctrl_ticks,
            "ctrl_rate_ups": self.ctrl_rate_ups,
            "ctrl_rate_downs": self.ctrl_rate_downs,
            "ctrl_rebalances": self.ctrl_rebalances,
            "migrations": self.migrations,
            "migration_aborts": self.migration_aborts,
            "migration_retries": self.migration_retries,
            "migrated_keys": self.migrated_keys,
            "migration_delta_ops": self.migration_delta_ops,
            "migration_reconciled": self.migration_reconciled,
        }
        for reason, n in sorted(self.reasons.items()):
            out[f"reject_{reason.replace('-', '_')}"] = n
        return out


def percentile(samples: list, q: float) -> float | None:
    """Nearest-rank percentile (deterministic, no interpolation):
    the ``ceil(q*n)``-th smallest sample, i.e. the smallest value with
    at least a ``q`` fraction of the samples at or below it.  None on
    an empty sample set.

    The rank is ``ceil``, never ``round``: banker's rounding over
    ``q*(n-1)`` under-reports the tail on small sample sets (e.g. p99
    of 60 samples picked the 59th-of-60 value instead of the max)."""
    if not samples:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(n, max(1, math.ceil(q * n)))
    return float(ordered[rank - 1])
