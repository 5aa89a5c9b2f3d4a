"""Device façade tying the simulator pieces together.

A :class:`GPUContext` owns one device's global memory and tracer; data
structures (GFSL, the M&C baseline) are constructed on a context and
express their operations as event generators.  The context offers both
execution modes:

* :meth:`run` — sequential trampoline for one operation,
* :meth:`run_concurrent` — deterministic interleaving of many operations
  (fine-grained races).

Operation arrays (the paper's test kernels, Section 5.1) run through the
batch engine (:mod:`repro.engine`), whose interleaved backend is the one
wave loop; :func:`default_concurrency` gives its in-flight op count.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from .device import DeviceConfig
from .memory import GlobalMemory
from .occupancy import KernelResources, OccupancyResult
from .scheduler import InterleavingScheduler, TaskResult, run_to_completion
from .timing import CostModel
from .tracer import TransactionTracer


def default_concurrency(device: DeviceConfig, occ: OccupancyResult,
                        kernel_res: KernelResources) -> int:
    """In-flight operation count for interleaved replay: the number of
    resident teams, capped by the device's memory-parallelism limit
    (threads queued on full MSHRs are not actively racing)."""
    in_flight = (occ.active_warps_per_sm * device.num_sms
                 * max(1, device.warp_size // kernel_res.lanes_per_op))
    return max(1, min(in_flight, device.mshr_per_sm * device.num_sms))


#: Region-reservation alignment: one 128-byte cache line of 8-byte words,
#: so every co-located structure starts chunk-aligned.
RESERVE_ALIGN = 16


class GPUContext:
    """One simulated device: memory + tracer + cost model.

    A context does not belong to any single data structure: several
    instances (e.g. the shards of a :class:`~repro.shard.ShardedMap`)
    can be co-located on one device by carving the memory into regions
    with :meth:`reserve` and laying each instance out at its region's
    base offset.
    """

    def __init__(self, num_words: int, device: DeviceConfig | None = None):
        self.device = device or DeviceConfig.gtx970()
        self.mem = GlobalMemory(num_words)
        self.tracer = TransactionTracer(self.device)
        self.cost_model = CostModel(self.device)
        self._reserved = 0
        self._epochs = None

    @property
    def epochs(self):
        """The device's snapshot-epoch manager (DESIGN.md §13), created
        lazily so contexts that never snapshot pay nothing."""
        if self._epochs is None:
            from ..core.epoch import EpochManager
            self._epochs = EpochManager(self.mem)
        return self._epochs

    # -- region allocation ----------------------------------------------
    def reserve(self, num_words: int) -> int:
        """Reserve a cache-line-aligned region of device memory and
        return its base word address.

        Structures built on a shared context call this instead of
        assuming they own the device starting at word 0.  Reservations
        are a host-side bump allocation — they never overlap and are
        never reclaimed (device memory is partitioned once, at build
        time, like a real multi-instance deployment).
        """
        if num_words <= 0:
            raise ValueError("reservation must be positive")
        base = -(-self._reserved // RESERVE_ALIGN) * RESERVE_ALIGN
        if base + num_words > self.mem.num_words:
            raise MemoryError(
                f"device memory exhausted: reserving {num_words} words at "
                f"base {base} exceeds the {self.mem.num_words}-word device")
        self._reserved = base + num_words
        return base

    @property
    def reserved_words(self) -> int:
        """Words handed out through :meth:`reserve` (including alignment
        padding)."""
        return self._reserved

    # -- single-operation execution ------------------------------------
    def run(self, gen: Generator) -> Any:
        """Execute one device-function generator to completion."""
        return run_to_completion(gen, self.mem, self.tracer)

    def run_untraced(self, gen: Generator) -> Any:
        """Execute without cost accounting (setup/validation paths)."""
        return run_to_completion(gen, self.mem, None)

    # -- concurrent execution --------------------------------------------
    def run_concurrent(self, gens: Iterable[Generator],
                       seed: int | None = None,
                       max_steps: int = 50_000_000) -> list[TaskResult]:
        """Interleave many operations at memory-access granularity."""
        sched = InterleavingScheduler(self.mem, self.tracer, seed=seed,
                                      max_steps=max_steps)
        for g in gens:
            sched.spawn(g)
        return sched.run()
