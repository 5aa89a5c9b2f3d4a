"""The structural interface backends execute against.

:class:`ConcurrentMap` is what a backend needs from a data structure:
generator factories for the three paper operations, the owning
:class:`~repro.gpu.kernel.GPUContext`, a
:class:`~repro.metrics.counters.MetricsCollector` counter block and the
registry's ``chunked`` capability flag.  Both
:class:`~repro.core.GFSL` and the M&C baseline satisfy it, which is what
lets the workload runner, the experiment harness, the CLI, and the
examples select ``structure × backend`` by name instead of
special-casing the two structures.

The registry also owns the workload-sized builders (previously private
to ``workloads/runner.py``): prefill sizing, bulk build, and L2 warming
for each structure.  Builders are *placement-explicit*: they take an
optional shared :class:`GPUContext` plus base offset (and a prefill
override) instead of assuming the instance owns a device of its own —
which is what lets :mod:`repro.shard` co-locate S instances on one
device.  Registry names accept a shard suffix: ``"gfsl@4"`` builds a
4-shard :class:`~repro.shard.ShardedMap` over GFSL instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Protocol, runtime_checkable

import numpy as np

from ..baseline import MC_KERNEL, MCSkiplist
from ..baseline import bulk_build_into as mc_bulk
from ..baseline import warm_structure as mc_warm
from ..baseline.node import HEADER_WORDS
from ..core import GFSL, GFSL_KERNEL, bulk_build_into, suggest_capacity
from ..core.bulk import warm_structure
from ..gpu.kernel import GPUContext
from ..gpu.occupancy import KernelResources
from ..metrics.counters import MetricsCollector
from .batch import OP_CONTAINS, OP_DELETE, OP_INSERT


@runtime_checkable
class ConcurrentMap(Protocol):
    """A concurrent ordered map executable by the batch engine.

    What a kind can do beyond it is one registry flag,
    :attr:`StructureSpec.chunked`, which every instance carries as
    ``chunked``: the GFSL family's chunks give the
    vectorized kernels (``vector_contains`` / ``vector_search`` /
    ``vector_update_wave``), ordered walks (``range_query``,
    ``min_key``/``max_key``) and snapshots (``begin_snapshot()``,
    ``snapshot_view(epoch)`` — DESIGN.md §13).  M&C has none of these:
    an ``mc@S`` map still defines them, and they raise
    :class:`TypeError` naming the kind.  Read the flag, never probe
    for a method; :func:`require_chunked` refuses M&C where a caller
    needs them.  Keys, values and windows obey one contract (DESIGN.md §5).
    """

    ctx: GPUContext
    metrics: MetricsCollector
    chunked: bool

    def contains_gen(self, key: int) -> Generator: ...
    def insert_gen(self, key: int, value: int = 0) -> Generator: ...
    def delete_gen(self, key: int) -> Generator: ...
    def keys(self) -> list: ...
    def items(self) -> list: ...


def op_generator(structure: ConcurrentMap, op: int, key: int,
                 value: int = 0) -> Generator:
    """One operation's device-function generator, by op-code."""
    if op == OP_CONTAINS:
        return structure.contains_gen(int(key))
    if op == OP_INSERT:
        return structure.insert_gen(int(key), int(value))
    if op == OP_DELETE:
        return structure.delete_gen(int(key))
    raise ValueError(f"unknown op-code {op!r}")


# ---------------------------------------------------------------------------
# Structure registry
# ---------------------------------------------------------------------------

def _expected_keys(workload) -> int:
    inserts = int(np.count_nonzero(np.asarray(workload.ops) == OP_INSERT))
    return len(workload.prefill) + inserts + 8


# -- placement planning ------------------------------------------------------
# How many device words an instance sized for `expected` keys occupies.
# Shard builders sum these to size one shared GPUContext before placing
# each instance at its reserved base offset.

def gfsl_pool_capacity(expected: int, team_size: int = 32) -> int:
    """Chunk-pool size for an expected key count (the builder's sizing)."""
    return suggest_capacity(max(expected, 64), team_size)


def gfsl_region_words(expected: int, team_size: int = 32) -> int:
    """Device words one GFSL instance sized for ``expected`` keys needs
    (layout is alignment-invariant for line-aligned bases)."""
    from ..core.chunk import ChunkGeometry
    from ..core.pool import StructureLayout
    return StructureLayout(ChunkGeometry(team_size), max_level=team_size,
                           capacity_chunks=gfsl_pool_capacity(expected,
                                                              team_size),
                           base=0).total_words


def mc_region_words(expected: int) -> int:
    """Device words one M&C instance sized for ``expected`` keys needs."""
    return expected * (HEADER_WORDS + 4) * 2 + 8192


def region_words(kind: str, expected: int, team_size: int = 32) -> int:
    """Region size for one instance of ``kind`` (base registry name)."""
    if structure_spec(kind).chunked:
        return gfsl_region_words(expected, team_size)
    return mc_region_words(expected)


def _build_gfsl(workload, *, team_size: int = 32, p_chunk: float = 1.0,
                p_key: float = 0.5, device=None, seed: int = 0,
                ctx=None, base: int | None = None, prefill=None,
                expected: int | None = None, cls: type = GFSL) -> GFSL:
    """Bulk-build the prefilled GFSL for a workload and warm the L2.

    ``ctx``/``base`` place the instance on a shared context at an
    explicit offset (``base=None`` on a shared context reserves one);
    ``prefill``/``expected`` override the workload's prefill set and
    sizing for partitioned builds.  The defaults reproduce the classic
    instance-owns-device build exactly.  ``cls`` selects a GFSL
    subclass (the ``pq`` registry entry passes
    :class:`~repro.core.pq.GPUPriorityQueue`).
    """
    if expected is None:
        expected = _expected_keys(workload)
    sl = cls(capacity_chunks=gfsl_pool_capacity(expected, team_size),
             team_size=team_size, p_chunk=p_chunk, ctx=ctx, device=device,
             base=base, seed=seed)
    prefill = workload.prefill if prefill is None else prefill
    if len(prefill):
        bulk_build_into(sl, prefill, rng=sl.rng)
    warm_structure(sl)
    return sl


def _build_pq(workload, **params):
    """The ``pq`` entry: a GFSL build yielding a
    :class:`~repro.core.pq.GPUPriorityQueue` (same layout, kernel
    profile, and sizing — only the wrapper class differs)."""
    from ..core.pq import GPUPriorityQueue
    return _build_gfsl(workload, cls=GPUPriorityQueue, **params)


def _build_mc(workload, *, team_size: int = 32, p_chunk: float = 1.0,
              p_key: float = 0.5, device=None, seed: int = 0,
              ctx=None, base: int | None = None, prefill=None,
              expected: int | None = None) -> MCSkiplist:
    """Bulk-build the prefilled M&C skiplist and warm the L2 (placement
    semantics as in :func:`_build_gfsl`)."""
    if expected is None:
        expected = _expected_keys(workload)
    mc = MCSkiplist(capacity_words=mc_region_words(expected), p_key=p_key,
                    ctx=ctx, device=device, base=base, seed=seed)
    prefill = workload.prefill if prefill is None else prefill
    if len(prefill):
        mc_bulk(mc, prefill, rng=mc.rng)
    mc_warm(mc)
    return mc


@dataclass(frozen=True)
class StructureSpec:
    """Registry entry: how to build a structure and cost its kernel."""

    name: str                       # registry key ("gfsl", "mc")
    label: str                      # display name ("GFSL", "M&C")
    build: Callable[..., Any]       # build(workload, **params) -> structure
    kernel: KernelResources         # calibrated resource profile
    chunked: bool = True            # GFSL family (see ConcurrentMap)


STRUCTURES: dict[str, StructureSpec] = {
    "gfsl": StructureSpec("gfsl", "GFSL", _build_gfsl, GFSL_KERNEL),
    "mc": StructureSpec("mc", "M&C", _build_mc, MC_KERNEL, chunked=False),
    "pq": StructureSpec("pq", "PQ", _build_pq, GFSL_KERNEL),
}


def available_structures() -> tuple[str, ...]:
    return tuple(STRUCTURES)


def parse_structure_kind(kind: str) -> tuple[str, int]:
    """Split a registry name into ``(base_kind, shards)``.

    ``"gfsl"`` → ``("gfsl", 1)``; ``"gfsl@4"`` → ``("gfsl", 4)``.
    """
    base, sep, suffix = kind.partition("@")
    if not sep:
        return kind, 1
    try:
        shards = int(suffix)
    except ValueError:
        shards = 0
    if shards < 1:
        raise ValueError(f"bad shard count in structure kind {kind!r}")
    return base, shards


def structure_spec(kind: str) -> StructureSpec:
    base_kind, shards = parse_structure_kind(kind)
    try:
        spec = STRUCTURES[base_kind]
    except KeyError:
        raise ValueError(
            f"unknown structure kind {kind!r} "
            f"(available: {', '.join(STRUCTURES)}, each with an optional "
            f"@<shards> suffix)") from None
    if "@" not in kind:
        return spec

    def build(workload, **params):
        from ..shard import build_sharded  # runtime: shard imports engine
        return build_sharded(base_kind, shards, workload, **params)

    return StructureSpec(name=kind, label=f"{spec.label}x{shards}",
                         build=build, kernel=spec.kernel,
                         chunked=spec.chunked)


def require_chunked(kind: str, caller: str, reason: str) -> StructureSpec:
    """The registry entry of ``kind``, refusing a kind without chunks
    with a one-line ``ValueError`` that names the kind, the ``caller``
    and the ``reason`` it needs chunks."""
    spec = structure_spec(kind)
    if not spec.chunked:
        chunked = ", ".join(k for k, s in STRUCTURES.items() if s.chunked)
        raise ValueError(
            f"{caller} needs a chunked GFSL-family structure ({chunked}, "
            f"with an optional @<shards> suffix), not {kind!r}: {reason}")
    return spec


def make_structure(kind: str, workload, *, shards: int | None = None,
                   **params) -> ConcurrentMap:
    """Build a prefilled, warmed structure for a workload by name.

    ``shards`` (or an ``@<shards>`` suffix on ``kind``) builds a
    :class:`~repro.shard.ShardedMap` of co-located instances; a
    ``partitioner`` keyword (``"range"``/``"hash"`` or a ready
    :class:`~repro.shard.RoutingTable`) then selects the key-space
    split and ``headroom`` over-provisions each shard's pool.  Those
    two keywords raise :class:`ValueError` on an unsharded build.
    """
    base_kind, kind_shards = parse_structure_kind(kind)
    n = kind_shards if shards is None else int(shards)
    if shards is not None and "@" in kind and shards != kind_shards:
        raise ValueError(f"conflicting shard counts: {kind!r} vs {shards}")
    if "@" not in kind and shards is None:
        # No sharding requested: the classic instance-owns-device build.
        for name in ("partitioner", "headroom"):
            if name in params:
                raise ValueError(f"{name!r} applies only to sharded "
                                 f"builds; {kind!r} has no shards")
        return structure_spec(base_kind).build(workload, **params)
    from ..shard import build_sharded  # runtime: shard imports engine
    return build_sharded(base_kind, n, workload, **params)
