"""Seeded adversarial campaigns and seed shrinking.

A *campaign* is one fully reproducible adversarial run: generate a
workload (seeded), bulk-build the prefill, execute through the
``interleaved-chaos`` backend (seeded faults), then judge the outcome
three ways —

1. the recorded history must be linearizable against the sequential
   map oracle (:mod:`repro.chaos.linearize`),
2. the quiesced structure must pass every
   :func:`~repro.core.validate.validate_structure` invariant,
3. no typed failure (``LockTimeout``, ``RestartStorm``,
   ``LivelockDetected``, ``InvariantViolation``, ``DeviceFault``) may
   escape.

Campaign defaults are tuned for *pressure*, not throughput: tiny
chunks (``team_size=8``) and ``p_chunk=1.0`` make splits, merges,
zombie chains and down-pointer repair constant occurrences rather than
rare events.

On failure, :func:`shrink_campaign` greedily reduces the configuration
— fewer ops, lower concurrency, fewer fault kinds, smaller key range —
re-running the campaign after each candidate reduction and keeping it
only if the failure persists.  The result is a minimal reproducing
configuration, printable as a one-line CLI command
(:func:`repro_command`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core import GFSL, InvariantViolation, validate_structure
from ..core.locks import LockTimeout
from ..core.traversal import RestartStorm
from ..engine import (InterleavedBackend, OpBatch, make_structure,
                      require_chunked)
from ..gpu.scheduler import DeviceFault
from ..workloads import Mixture, generate
from .faults import ChaosConfig
from .hooks import ChaosHooks
from .linearize import LinearizabilityReport, check_history
from .watchdog import LivelockDetected


@dataclass(frozen=True)
class CampaignConfig:
    """One reproducible adversarial run, identified by its seeds."""

    n_ops: int = 2_000
    key_range: int = 150
    mix: tuple[int, int, int] = (20, 20, 60)   # [i, d, c] percentages
    team_size: int = 8                         # tiny chunks: split/merge pressure
    p_chunk: float = 1.0                       # every split raises a key
    concurrency: int = 16
    seed: int = 0                              # workload + chaos seed
    faults: ChaosConfig = field(default_factory=ChaosConfig.adversarial)
    trace: bool = False                        # cost accounting off by default
    lock_retry_limit: int | None = None        # None = structure default
    restart_limit: int | None = None
    task_step_budget: int = 2_000_000
    structure: str = "gfsl"                    # registry name, e.g. "gfsl@4"
    snapshots: int = 0                         # frozen-snapshot readers per wave

    def __post_init__(self):
        for flag, value in (("--ops", self.n_ops),
                            ("--concurrency", self.concurrency)):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1 (got {value})")

    def mixture(self) -> Mixture:
        i, d, c = self.mix
        return Mixture(i, d, c)


@dataclass
class CampaignReport:
    """Everything one campaign learned, pass or fail."""

    config: CampaignConfig
    ok: bool = False
    error: str | None = None                   # typed failure, if any
    lin: LinearizabilityReport | None = None
    invariants: dict | None = None             # validate_structure stats
    invariant_error: str | None = None
    fault_counts: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  # MetricsCollector.as_dict
    n_ops: int = 0

    @property
    def faults_injected(self) -> int:
        return sum(self.fault_counts.values())

    def summary(self) -> str:
        cfg = self.config
        extras = ""
        if cfg.structure != "gfsl":
            extras += f" structure={cfg.structure}"
        if cfg.snapshots:
            extras += f" snapshots={cfg.snapshots}"
        head = (f"campaign seed={cfg.seed} ops={self.n_ops} "
                f"range={cfg.key_range} mix={list(cfg.mix)} "
                f"conc={cfg.concurrency}{extras}: ")
        if self.error is not None:
            return head + f"FAIL — {self.error}"
        lines = [head + ("ok" if self.ok else "FAIL")]
        if self.lin is not None:
            lines.append(f"  history: {self.lin.summary()}")
            for v in self.lin.violations[:3]:
                lines.append("  " + str(v).replace("\n", "\n  "))
            for sv in self.lin.snapshot_violations[:3]:
                lines.append("  " + str(sv))
        if self.invariant_error is not None:
            lines.append(f"  invariants: VIOLATED — {self.invariant_error}")
        elif self.invariants is not None:
            lines.append(f"  invariants: ok {self.invariants}")
        injected = {k: v for k, v in self.fault_counts.items() if v}
        lines.append(f"  faults injected: {self.faults_injected} {injected}")
        if self.counters:
            s = self.counters
            lines.append(
                f"  op stats: splits={s['splits']} merges={s['merges']} "
                f"zombies_unlinked={s['zombies_unlinked']} "
                f"lock_retries={s['lock_spins']} "
                f"restarts={s['contains_restarts']}"
                f"+{s['update_restarts']} "
                f"max_zombie_chain={s['max_zombie_chain']}")
        return "\n".join(lines)


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute one campaign end to end; never raises for the failure
    modes it audits — they land in the report.  A structure the audit
    cannot judge is rejected with ``ValueError`` before anything runs."""
    require_chunked(cfg.structure, "a chaos campaign",
                    "the quiesced audit (validate_structure) checks GFSL "
                    "chunk invariants only")
    report = CampaignReport(config=cfg, n_ops=cfg.n_ops)
    workload = generate(cfg.mixture(), key_range=cfg.key_range,
                        n_ops=cfg.n_ops, seed=cfg.seed)
    sl = make_structure(cfg.structure, workload, team_size=cfg.team_size,
                        p_chunk=cfg.p_chunk, seed=cfg.seed)
    # A ShardedMap validates per shard; limits apply to each instance.
    targets: list[GFSL] = getattr(sl, "shards", [sl])
    for t in targets:
        if cfg.lock_retry_limit is not None:
            t.lock_retry_limit = cfg.lock_retry_limit
        if cfg.restart_limit is not None:
            t.restart_limit = cfg.restart_limit
    hooks = ChaosHooks(config=cfg.faults, chaos_seed=cfg.seed,
                       task_step_budget=cfg.task_step_budget,
                       trace=cfg.trace, snapshot_readers=cfg.snapshots)
    backend = InterleavedBackend(concurrency=cfg.concurrency, chaos=hooks)
    initial = set(int(k) for k in workload.prefill)
    try:
        backend.execute(sl, OpBatch.from_workload(workload))
    except (LockTimeout, RestartStorm, LivelockDetected, DeviceFault,
            InvariantViolation) as e:
        report.error = f"{type(e).__name__}: {e}"
    finally:
        if hooks.injector is not None:
            report.fault_counts = dict(hooks.injector.counts)
        report.counters = sl.metrics.as_dict()
    if report.error is not None:
        return report

    # Quiesced: check the recorded history (plus any frozen snapshot
    # observations) and the full structure — per shard for a ShardedMap.
    final = set(sl.keys())
    report.lin = check_history(hooks.recorder, initial, final,
                               snapshots=hooks.snapshots)
    try:
        stats: dict = {}
        for t in targets:
            for k, v in validate_structure(t).items():
                if k == "height":
                    stats[k] = max(stats.get(k, 0), v)
                else:
                    stats[k] = stats.get(k, 0) + v
        report.invariants = stats
    except InvariantViolation as e:
        report.invariant_error = str(e)
    report.ok = report.lin.ok and report.invariant_error is None
    return report


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _fails(cfg: CampaignConfig) -> bool:
    return not run_campaign(cfg).ok


def shrink_campaign(cfg: CampaignConfig, max_runs: int = 40) -> CampaignConfig:
    """Greedy delta-debugging over the campaign configuration.

    Assumes ``cfg`` currently fails; returns a (locally) minimal
    configuration that still fails, re-running at most ``max_runs``
    campaigns.  Reductions tried, in order of payoff: halve the op
    count, halve concurrency, drop fault kinds one at a time, halve the
    key range.
    """
    runs = 0

    def still_fails(candidate: CampaignConfig) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return _fails(candidate)

    current = cfg
    progress = True
    while progress and runs < max_runs:
        progress = False
        # 1. fewer ops (the biggest lever for a readable schedule)
        while current.n_ops > 50:
            cand = replace(current, n_ops=max(50, current.n_ops // 2))
            if still_fails(cand):
                current, progress = cand, True
            else:
                break
        # 2. lower concurrency (fewer overlapping intervals)
        while current.concurrency > 2:
            cand = replace(current,
                           concurrency=max(2, current.concurrency // 2))
            if still_fails(cand):
                current, progress = cand, True
            else:
                break
        # 3. fewer fault kinds (isolate the triggering injection point)
        for kind in current.faults.active_kinds():
            cand = replace(current, faults=current.faults.without(kind))
            if still_fails(cand):
                current, progress = cand, True
        # 4. smaller key range (denser per-key histories, shorter dump)
        while current.key_range > 16:
            cand = replace(current, key_range=max(16, current.key_range // 2))
            if still_fails(cand):
                current, progress = cand, True
            else:
                break
    return current


def repro_command(cfg: CampaignConfig) -> str:
    """The one-line CLI invocation reproducing a campaign."""
    i, d, c = cfg.mix
    parts = [f"PYTHONPATH=src python -m repro chaos --seed {cfg.seed}",
             f"--ops {cfg.n_ops}", f"--range {cfg.key_range}",
             f"--mix {i} {d} {c}", f"--team-size {cfg.team_size}",
             f"--concurrency {cfg.concurrency}"]
    if cfg.structure != "gfsl":
        parts.append(f"--structure {cfg.structure}")
    if cfg.snapshots:
        parts.append(f"--snapshots {cfg.snapshots}")
    active = cfg.faults.active_kinds()
    if not active:
        parts.append("--no-faults")
    else:
        # The CLI starts from the adversarial default; spell out the
        # kinds a shrink disabled.
        for k in ChaosConfig.adversarial().active_kinds():
            if k not in active:
                parts.append(f"--disable {k}")
    if cfg.faults.bug:
        parts.append(f"--bug {cfg.faults.bug}")
    return " ".join(parts)
