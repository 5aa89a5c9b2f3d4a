"""``repro.core`` — GFSL, the paper's GPU-friendly skiplist.

The structure is a tower of chunked linked lists traversed and mutated
by warp-cooperative team operations; see DESIGN.md and the module
docstrings for the mapping onto the thesis algorithms.
"""

from . import constants
from .bulk import bulk_build_into, plan_chunks, rebuild_into, warm_structure
from .chunk import ChunkGeometry, ChunkVersion, select_version
from .epoch import EpochDomain, EpochManager, GFSLSnapshot
from .gfsl import GFSL, GFSL_KERNEL, suggest_capacity
from .locks import LockTimeout
from .pq import GPUPriorityQueue
from .traversal import RestartStorm
from .validate import (InvariantViolation, bottom_items, count_zombies,
                       level_items, structure_height, validate_structure)

__all__ = [
    "GFSL", "GFSL_KERNEL", "suggest_capacity", "ChunkGeometry",
    "ChunkVersion", "select_version",
    "EpochDomain", "EpochManager", "GFSLSnapshot", "GPUPriorityQueue",
    "bulk_build_into", "plan_chunks", "rebuild_into", "warm_structure",
    "constants", "InvariantViolation",
    "LockTimeout", "RestartStorm",
    "bottom_items", "count_zombies", "level_items", "structure_height",
    "validate_structure",
]
