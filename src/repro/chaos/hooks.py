"""Chaos hooks for the interleaved wave loop (``interleaved-chaos``).

:class:`ChaosHooks` attaches to
:class:`~repro.engine.backends.InterleavedBackend` (``chaos=``); the
backend keeps its own schedule — wave composition, per-wave seeds,
result order — and the hooks add the chaos instrumentation around it:

* a seeded :class:`~repro.chaos.faults.FaultInjector` is attached to
  the structure (``structure.chaos``) and to each wave's scheduler, so
  every injection point in core and scheduler code is live,
* every operation's invocation/response interval is recorded into a
  :class:`~repro.chaos.linearize.HistoryRecorder` (wave step stamps are
  offset so intervals stay totally ordered across waves — waves really
  do run back-to-back),
* a :class:`~repro.chaos.watchdog.Watchdog` turns livelock into
  diagnosed :class:`~repro.chaos.watchdog.LivelockDetected`,
* optional snapshot-reader tasks join every wave (DESIGN.md §13).

With the default zero-fault config the event stream, the schedule, and
therefore the per-op results are **byte-identical** to ``interleaved``
on every structure, sharded builds included (a differential test pins
this).
"""

from __future__ import annotations

from ..engine.backends import InterleavedBackend
from ..engine.batch import OP_NAMES
from ..engine.interface import ConcurrentMap
from ..gpu import events as ev
from .faults import ChaosConfig, FaultInjector
from .linearize import HistoryRecorder, SnapshotObservation
from .watchdog import Watchdog

#: Scheduler steps a snapshot reader holds its pin before the frozen
#: read — long enough that concurrent writers publish splits/merges
#: under the pin on every wave of a pressure campaign.
READER_HOLD_STEPS = 24


def _snapshot_reader_gen(structure: ConcurrentMap,
                         hold: int = READER_HOLD_STEPS):
    """Device-function generator for one frozen snapshot read.

    Pins an epoch on its first scheduler step, holds the pin across
    ``hold`` interleaved steps while writers mutate live memory, then
    reads the frozen cut and releases.  Returns the observed key set —
    the hooks turn it into a
    :class:`~repro.chaos.linearize.SnapshotObservation` stamped with the
    task's invocation/response interval.
    """
    snap = structure.begin_snapshot()
    try:
        for _ in range(hold):
            yield ev.Compute(1)
        pairs = snap.items()
        yield ev.Compute(1)
    finally:
        snap.release()
    return frozenset(k for k, _ in pairs)


class ChaosHooks:
    """Fault injection + history recording for the interleaved loop.

    ``config``/``chaos_seed`` configure the injector,
    ``task_step_budget`` the watchdog, ``trace`` keeps cost accounting
    on (campaigns disable it — correctness runs don't need the tracer),
    and ``snapshot_readers`` adds that many tasks per wave that pin a
    frozen snapshot, hold it across writer steps, and record what they
    saw.  Reader tasks are excluded from the batch results; their
    observations land in ``self.snapshots`` for the extended
    linearizability checker.

    ``snapshot_readers`` requires ``commit="per-op"``: under a batch
    commit a mid-batch pin deliberately reads the pre-batch cut, which
    the per-op history checker would (correctly, for its model) flag,
    so :meth:`begin` refuses readers while an epoch commit is open.
    Batch-commit atomicity is proven by the engine-level tests instead.

    After a batch, ``self.recorder`` holds the recorded history,
    ``self.injector`` the fault accounting and ``self.snapshots`` the
    reader observations of that batch.
    """

    name = "interleaved-chaos"

    def __init__(self, config: ChaosConfig | None = None,
                 chaos_seed: int = 0,
                 task_step_budget: int = 2_000_000,
                 trace: bool = True,
                 snapshot_readers: int = 0):
        self.config = config or ChaosConfig()
        self.chaos_seed = chaos_seed
        self.task_step_budget = task_step_budget
        self.trace = trace
        self.snapshot_readers = int(snapshot_readers)
        self.recorder: HistoryRecorder | None = None
        self.injector: FaultInjector | None = None
        self.snapshots: list[SnapshotObservation] | None = None
        self.watchdog: Watchdog | None = None

    # -- called by InterleavedBackend ----------------------------------
    def begin(self, structure: ConcurrentMap) -> None:
        """Fresh injector/recorder/watchdog for one batch; installs the
        injector as ``structure.chaos`` until :meth:`end`.  Refuses
        readers it cannot judge (never creating an epoch manager)."""
        if self.snapshot_readers and not structure.chunked:
            raise ValueError(
                f"snapshot_readers={self.snapshot_readers} but the "
                f"structure is not chunked (mc has no snapshots)")
        mgr = structure.ctx._epochs
        if self.snapshot_readers and mgr is not None and mgr.committing:
            raise ValueError(
                "snapshot_readers requires commit='per-op': a pin inside "
                "an open batch commit reads the pre-batch cut by design, "
                "which the per-op checker would flag")
        self.injector = FaultInjector(self.config, seed=self.chaos_seed)
        self.recorder = HistoryRecorder()
        self.snapshots = []
        self.watchdog = Watchdog(stats=structure.metrics,
                                 injector=self.injector,
                                 task_step_budget=self.task_step_budget)
        self._step_base = 0
        self._prev_chaos = getattr(structure, "chaos", None)
        structure.chaos = self.injector

    def wave_tasks(self, structure: ConcurrentMap,
                   labels: dict[int, str]) -> list:
        """Extra tasks for the wave whose op tasks ``labels`` names
        (task ids ``0..len(labels)-1``); labels the readers in place and
        hands the wave's labels to the watchdog."""
        n_wave = len(labels)
        for j in range(self.snapshot_readers):
            labels[n_wave + j] = f"snapshot#{j}"
        self.watchdog.labels = labels
        return [_snapshot_reader_gen(structure)
                for _ in range(self.snapshot_readers)]

    def end_wave(self, wave_results, wave_ids: list[int],
                 ops: list[int], keys: list[int]) -> None:
        """Record one finished wave: each op's interval into the history
        (batch op ``wave_ids[task_id]``), each reader's cut into
        ``snapshots``; step stamps are offset past all earlier waves."""
        base = self._step_base
        n_wave = len(wave_ids)
        wave_end = base
        for r in wave_results:
            start, end = base + r.start_step, base + r.end_step
            if r.task_id >= n_wave:
                # Snapshot reader: observation, not an op.
                self.snapshots.append(SnapshotObservation(r.value, start,
                                                          end))
            else:
                g = wave_ids[r.task_id]
                self.recorder.record(OP_NAMES[ops[g]], keys[g], r.value,
                                     start, end)
            wave_end = max(wave_end, end)
        self._step_base = wave_end + 1

    def end(self, structure: ConcurrentMap) -> None:
        structure.chaos = self._prev_chaos


def chaos_backend(concurrency: int | None = None, seed: int | None = None,
                  **hooks) -> InterleavedBackend:
    """The ``interleaved-chaos`` registry entry: an
    :class:`InterleavedBackend` with :class:`ChaosHooks` built from the
    remaining keywords."""
    return InterleavedBackend(concurrency, seed, chaos=ChaosHooks(**hooks))
