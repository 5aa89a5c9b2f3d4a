"""Node layout of the M&C baseline skiplist in simulated device memory.

Misra & Chaudhuri [MC12b] port the classic lock-free skiplist
(Herlihy–Shavit) to the GPU essentially unchanged: one pointer-linked
node per key, a tower of next pointers with logical-deletion mark bits,
one operation per *thread*.  Every pointer hop is an 8-byte load at an
unpredictable address — the scattered, uncoalesced access pattern whose
cost the paper's evaluation hinges on.

Node at word address ``a``::

    a+0          key (lower 32b) | value (upper 32b): a GFSL entry
    a+1          tower height (number of linked levels, ≥ 1)
    a+2 .. a+1+h next-pointer words, one per level:
                 successor word-address (lower 32b) | mark (bit 32)

``NULL_PTR`` (0xFFFFFFFF) terminates every list; the mark bit is the
Harris-style logical-delete flag packed into the same word so one CAS
covers pointer+mark.
"""

from __future__ import annotations

from ..core.constants import MASK32
from ..gpu import events as ev
from ..gpu.memory import GlobalMemory

MARK_BIT = 1 << 32
HEADER_WORDS = 2  # key/value word + height word


def pack_link(ptr: int, marked: bool = False) -> int:
    return (ptr & MASK32) | (MARK_BIT if marked else 0)


def link_ptr(word: int) -> int:
    return word & MASK32


def link_marked(word: int) -> bool:
    return bool(word & MARK_BIT)


def node_words(height: int) -> int:
    return HEADER_WORDS + height


class NodePool:
    """Bump allocator for variable-size nodes inside one memory region.

    ``base`` word 0 holds the bump pointer; nodes follow.  Matching the
    paper's observation that M&C "runs out of memory for larger
    structures", exhaustion raises :class:`OutOfNodes`.
    """

    def __init__(self, base: int, capacity_words: int):
        if capacity_words < 64:
            raise ValueError("node pool too small")
        self.base = base
        self.capacity_words = capacity_words
        self.ctr_addr = base
        self.first_node = base + 1

    def format(self, mem: GlobalMemory) -> None:
        mem.write_word(self.ctr_addr, self.first_node)

    def allocated_words(self, mem: GlobalMemory) -> int:
        return mem.read_word(self.ctr_addr) - self.first_node

    def alloc(self, height: int):
        """Device-side allocation of one node (atomic bump)."""
        size = node_words(height)
        addr = yield ev.AtomicAdd(self.ctr_addr, size)
        if addr + size > self.base + self.capacity_words:
            raise OutOfNodes(
                f"M&C node pool exhausted ({self.capacity_words} words) — "
                "the failure mode Section 5.3 reports for large key ranges")
        return addr

    # Host-side bulk allocation used by the prefill builder.
    def host_alloc(self, mem: GlobalMemory, total_words: int) -> int:
        addr = mem.read_word(self.ctr_addr)
        if addr + total_words > self.base + self.capacity_words:
            raise OutOfNodes("M&C bulk build exceeds node pool")
        mem.write_word(self.ctr_addr, addr + total_words)
        return addr


class OutOfNodes(RuntimeError):
    pass
