"""Partitioned multi-instance layer: S structures on one device.

``build_sharded("gfsl", 4, workload)`` places four GFSL instances at
reserved base offsets of one shared :class:`~repro.gpu.kernel
.GPUContext` and returns a :class:`ShardedMap` that routes every
operation to its owning shard — a drop-in
:class:`~repro.engine.ConcurrentMap` for all engine backends, with
shard-aware batch ordering and wave planning so the shards progress
concurrently under the simulated scheduler.
"""

from .migrate import MigrationConfig, MigrationExecutor
from .router import merge_waves, round_robin_order, split_indices
from .routing import RoutingTable
from .sharded import ShardedMap, ShardedSnapshot, build_sharded

__all__ = [
    "MigrationConfig",
    "MigrationExecutor",
    "RoutingTable",
    "ShardedMap",
    "ShardedSnapshot",
    "build_sharded",
    "merge_waves",
    "round_robin_order",
    "split_indices",
]
