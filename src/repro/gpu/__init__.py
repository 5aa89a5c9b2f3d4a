"""``repro.gpu`` — deterministic SIMT GPU simulator.

This package is the hardware substitution for the paper's CUDA/GTX 970
testbed (see DESIGN.md §2).  It provides:

* :class:`~repro.gpu.device.DeviceConfig` / :class:`~repro.gpu.device.LaunchConfig`
  — hardware description and launch shapes,
* :class:`~repro.gpu.memory.GlobalMemory` — word-addressed device memory,
* :class:`~repro.gpu.cache.L2Cache` — set-associative LRU L2,
* :class:`~repro.gpu.tracer.TransactionTracer` — coalescing + transaction
  accounting,
* :mod:`~repro.gpu.intrinsics` — ballot/shfl/clz warp primitives,
* :mod:`~repro.gpu.events` + :mod:`~repro.gpu.scheduler` — generator-based
  kernels with sequential and interleaved execution,
* :mod:`~repro.gpu.occupancy` + :mod:`~repro.gpu.timing` — occupancy,
  spillover, and the three-bound cycle model,
* :class:`~repro.gpu.kernel.GPUContext` — one device: memory, tracer
  and cost model.
"""

from .device import DeviceConfig, LaunchConfig
from .kernel import GPUContext
from .memory import GlobalMemory
from .occupancy import KernelResources, OccupancyResult, compute_occupancy
from .scheduler import DeviceFault, InterleavingScheduler, run_to_completion
from .timing import CostModel, TimingResult
from .tracer import TraceStats, TransactionTracer

__all__ = [
    "DeviceConfig", "LaunchConfig", "GPUContext",
    "GlobalMemory", "KernelResources", "OccupancyResult",
    "compute_occupancy", "DeviceFault", "InterleavingScheduler",
    "run_to_completion", "CostModel", "TimingResult", "TraceStats",
    "TransactionTracer",
]
