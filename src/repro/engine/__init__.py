"""Pluggable batch-execution engine.

One entry point for all three execution paths the repo grew
historically — sequential trampoline, event-granularity interleaving,
and lock-step vectorized waves — behind a common ``Backend`` protocol
operating on :class:`OpBatch` structure-of-arrays batches against any
:class:`ConcurrentMap` (GFSL or the M&C baseline).

Typical use::

    from repro.engine import OpBatch, execute_batch, make_structure

    batch = OpBatch.from_workload(workload)
    sl = make_structure("gfsl", workload, team_size=32)
    out = execute_batch(sl, batch, backend="vectorized")

This package never imports :mod:`repro.workloads` (which imports it).
"""

from .backends import (
    BACKEND_NAMES,
    COMMIT_MODES,
    Backend,
    BatchResult,
    InterleavedBackend,
    SequentialBackend,
    available_backends,
    commit_scope,
    execute_batch,
    make_backend,
)
from .batch import OP_CONTAINS, OP_DELETE, OP_INSERT, OP_NAMES, OpBatch
from .interface import (
    STRUCTURES,
    ConcurrentMap,
    StructureSpec,
    available_structures,
    make_structure,
    op_generator,
    parse_structure_kind,
    region_words,
    require_chunked,
    structure_spec,
)
from .vectorized import VectorizedBackend, plan_waves, run_wave_generators

__all__ = [
    "OP_CONTAINS",
    "OP_INSERT",
    "OP_DELETE",
    "OP_NAMES",
    "OpBatch",
    "Backend",
    "BatchResult",
    "BACKEND_NAMES",
    "COMMIT_MODES",
    "commit_scope",
    "execute_batch",
    "SequentialBackend",
    "InterleavedBackend",
    "VectorizedBackend",
    "available_backends",
    "make_backend",
    "plan_waves",
    "run_wave_generators",
    "ConcurrentMap",
    "StructureSpec",
    "STRUCTURES",
    "available_structures",
    "structure_spec",
    "make_structure",
    "op_generator",
    "parse_structure_kind",
    "region_words",
    "require_chunked",
]
