"""``repro.baseline`` — the Misra & Chaudhuri lock-free skiplist, the
comparator ("M&C") of every experiment in Chapter 5."""

from .bulk import bulk_build_into, warm_structure
from .mc_skiplist import DEFAULT_P_KEY, MC_KERNEL, MCSkiplist
from .node import NodePool, OutOfNodes

__all__ = ["MCSkiplist", "MC_KERNEL", "DEFAULT_P_KEY", "NodePool",
           "OutOfNodes", "bulk_build_into", "warm_structure"]
