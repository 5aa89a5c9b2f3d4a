"""Livelock/starvation watchdog for interleaved execution.

The interleaving scheduler's only native guard is a global
``max_steps`` that dies with a bare ``DeviceFault`` — useless for
diagnosing *which* operation wedged and *why*.  The watchdog observes
every task advance and raises :class:`LivelockDetected` carrying a
:class:`StuckOpDiagnostics` snapshot — the stuck task, its per-op step
count, the structure's retry/backoff accounting read from its
collector (``lock_spins``, reported as ``lock_retries``;
``contains_restarts``, ``update_restarts``, ``max_zombie_chain``), the
lock-ownership table, and the fault counts —
when either

* one task exceeds ``task_step_budget`` steps without responding
  (starvation: e.g. a spinner whose lock holder never runs), or
* the whole scheduler exceeds ``total_step_budget`` (collective
  livelock: everyone retrying, nobody finishing).

Budgets default high enough that healthy chaos campaigns (stalls slow
tasks down by design) never trip them.

The retry *bounds* the accounting observes live in
:mod:`~repro.chaos.retry`: :class:`~repro.chaos.retry.RetryPolicy` is
the one shared implementation — ``RetryPolicy.bounded`` backs the core
lock-retry limit, and the full seeded backoff+jitter shape backs the
serve frontend's flush retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class StuckOpDiagnostics:
    """Everything known about a suspected livelock/starvation event."""

    task_id: int
    task_steps: int
    total_steps: int
    label: str | None = None
    lock_retries: int = 0
    contains_restarts: int = 0
    update_restarts: int = 0
    max_zombie_chain: int = 0
    lock_owners: dict[int, Any] = field(default_factory=dict)
    fault_counts: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        who = f"task {self.task_id}"
        if self.label:
            who += f" ({self.label})"
        lines = [f"{who} stuck after {self.task_steps} of "
                 f"{self.total_steps} scheduler steps",
                 f"  lock_retries={self.lock_retries} "
                 f"contains_restarts={self.contains_restarts} "
                 f"update_restarts={self.update_restarts} "
                 f"max_zombie_chain={self.max_zombie_chain}"]
        if self.lock_owners:
            held = ", ".join(f"chunk {p}←task {o}"
                             for p, o in sorted(self.lock_owners.items()))
            lines.append(f"  locks held: {held}")
        injected = {k: v for k, v in self.fault_counts.items() if v}
        if injected:
            lines.append(f"  faults injected so far: {injected}")
        return "\n".join(lines)


class LivelockDetected(RuntimeError):
    """Raised by the watchdog instead of letting the scheduler spin."""

    def __init__(self, diagnostics: StuckOpDiagnostics):
        self.diagnostics = diagnostics
        super().__init__(str(diagnostics))


class Watchdog:
    """Observes task advances; raises :class:`LivelockDetected` with
    diagnostics once a budget is exceeded.

    ``stats`` is the structure's
    :class:`~repro.metrics.counters.MetricsCollector` (retry/restart/
    zombie accounting), ``injector`` the attached
    :class:`~repro.chaos.faults.FaultInjector` (lock owners + fault
    counts); both optional.  ``labels`` maps task ids to human-readable
    op labels for the report.
    """

    def __init__(self, stats=None, injector=None,
                 task_step_budget: int = 2_000_000,
                 total_step_budget: int = 50_000_000,
                 labels: dict[int, str] | None = None):
        self.stats = stats
        self.injector = injector
        self.task_step_budget = task_step_budget
        self.total_step_budget = total_step_budget
        self.labels = labels or {}
        self.finished_tasks = 0

    def diagnose(self, task_id: int, task_steps: int,
                 total_steps: int) -> StuckOpDiagnostics:
        d = StuckOpDiagnostics(task_id=task_id, task_steps=task_steps,
                               total_steps=total_steps,
                               label=self.labels.get(task_id))
        if self.stats is not None:
            d.lock_retries = self.stats.lock_spins
            d.contains_restarts = self.stats.contains_restarts
            d.update_restarts = self.stats.update_restarts
            d.max_zombie_chain = self.stats.max_zombie_chain
        if self.injector is not None:
            d.lock_owners = dict(self.injector.lock_owners)
            d.fault_counts = dict(self.injector.counts)
        return d

    def observe(self, task_id: int, task_steps: int,
                total_steps: int) -> None:
        """Called by the scheduler after each task advance."""
        if (task_steps > self.task_step_budget
                or total_steps > self.total_step_budget):
            raise LivelockDetected(
                self.diagnose(task_id, task_steps, total_steps))

    def finished(self, task_id: int) -> None:
        self.finished_tasks += 1
