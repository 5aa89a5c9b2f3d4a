"""Transaction accounting: coalescing, L2 classification, cost tallies.

On the simulated device every memory event is mapped to the set of
128-byte cache lines it touches.  A *transaction* is one line-sized
request (Section 2.2: "a memory transaction is performed for every cache
line covered by the requests").  Thus:

* a GFSL team of 16 reading its 128 B chunk issues 1 transaction,
* a team of 32 reading a 256 B chunk issues 2,
* 32 M&C threads each chasing a different pointer issue up to 32.

Each transaction is classified by the L2 model as a hit or a DRAM access;
the :class:`TraceStats` counters feed the cycle model in
:mod:`repro.gpu.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .cache import L2Cache
from .device import DeviceConfig
from .memory import WORD_BYTES


@dataclass
class TraceStats:
    """Aggregate counters for one simulated kernel run."""

    transactions: int = 0
    l2_hit_transactions: int = 0
    dram_transactions: int = 0
    # DRAM misses split by access pattern: coalesced bursts stream at
    # full bandwidth, scattered single-word misses pay DRAM row
    # activation on (almost) every access.
    dram_coalesced: int = 0
    dram_scattered: int = 0
    # L2 hits split the same way (a scattered hit moves one 32B sector,
    # a coalesced hit a full line).
    l2_coalesced: int = 0
    l2_scattered: int = 0
    tlb_misses: int = 0
    coalesced_accesses: int = 0      # team-wide accesses (ChunkRead etc.)
    scalar_accesses: int = 0         # single-word accesses
    atomic_ops: int = 0
    atomic_conflicts: int = 0        # same-line atomics within one warp step
    instructions: int = 0            # warp-wide issue slots (Compute events)
    divergent_instructions: int = 0  # issue slots spent in divergent replay
    bytes_requested: int = 0
    spill_accesses: int = 0

    def merge(self, other: "TraceStats") -> None:
        # Derived from the dataclass so a field added later can never be
        # silently dropped from the merge.
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hit_transactions / self.transactions if self.transactions else 0.0


class TransactionTracer:
    """Maps memory events onto cache-line transactions and tallies cost.

    The tracer owns the device's L2 model.  All device accesses funnel
    through :meth:`access_words`; the trampoline in
    :mod:`repro.gpu.scheduler` calls it for every memory event.
    """

    def __init__(self, device: DeviceConfig):
        self.device = device
        self.l2 = L2Cache(device.l2_bytes, device.line_bytes, device.l2_assoc)
        self.stats = TraceStats()
        self.words_per_line = device.line_bytes // WORD_BYTES
        # A small TLB: GPU page tables cover tens of MB; structures far
        # beyond that add an address-translation walk to scattered
        # accesses (the extra super-linear penalty at 10M+ key ranges).
        self.tlb_page_words = device.tlb_page_bytes // WORD_BYTES
        self.tlb_entries = device.tlb_entries
        self._tlb: dict[int, None] = {}

    # ------------------------------------------------------------------
    def lines_of(self, addr: int, n_words: int) -> range:
        """Line addresses covered by ``n_words`` words at word address
        ``addr``."""
        first = addr // self.words_per_line
        last = (addr + n_words - 1) // self.words_per_line
        return range(first, last + 1)

    def access_words(self, addr: int, n_words: int, *, coalesced: bool,
                     atomic: bool = False) -> int:
        """Record an access covering ``n_words`` words; returns the number
        of transactions issued."""
        stats = self.stats
        # TLB: one LRU step for the access's first page.
        page = addr // self.tlb_page_words
        tlb = self._tlb
        if page in tlb:
            del tlb[page]
        else:
            stats.tlb_misses += 1
            if len(tlb) >= self.tlb_entries:
                tlb.pop(next(iter(tlb)))
        tlb[page] = None
        wpl = self.words_per_line
        lines = range(addr // wpl, (addr + n_words - 1) // wpl + 1)
        hits, misses = self.l2.access_many(lines)
        stats.transactions += hits + misses
        stats.l2_hit_transactions += hits
        stats.dram_transactions += misses
        stats.bytes_requested += n_words * WORD_BYTES
        if coalesced:
            stats.l2_coalesced += hits
            stats.dram_coalesced += misses
            stats.coalesced_accesses += 1
        else:
            stats.l2_scattered += hits
            stats.dram_scattered += misses
            stats.scalar_accesses += 1
        if atomic:
            stats.atomic_ops += 1
        return hits + misses

    def access_gather(self, addrs, *, sorted_lines: bool) -> int:
        """Record one warp-wide scattered read of one word per address:
        every address takes a TLB step in order, then each distinct line
        the addresses cover issues one scattered transaction (the
        Section 2.2 coalescing rule).  The lines go through the L2 in
        ascending order with ``sorted_lines``, else in order of first
        occurrence.  Counts one scalar access; returns the number of
        transactions."""
        wpl = self.words_per_line
        page_words = self.tlb_page_words
        self._tlb_access_many([a // page_words for a in addrs])
        lines = dict.fromkeys(a // wpl for a in addrs)
        hits, misses = self.l2.access_many(
            sorted(lines) if sorted_lines else list(lines))
        stats = self.stats
        stats.transactions += hits + misses
        stats.l2_hit_transactions += hits
        stats.l2_scattered += hits
        stats.dram_transactions += misses
        stats.dram_scattered += misses
        stats.bytes_requested += len(addrs) * WORD_BYTES
        stats.scalar_accesses += 1
        return hits + misses

    def _tlb_access_many(self, ordered_pages) -> None:
        """Run page addresses through the TLB LRU in order, one LRU step
        each (the step :meth:`access_words` takes for its first page)."""
        tlb = self._tlb
        entries = self.tlb_entries
        misses = 0
        for page in ordered_pages:
            if page in tlb:
                del tlb[page]
                tlb[page] = None
                continue
            misses += 1
            if len(tlb) >= entries:
                tlb.pop(next(iter(tlb)))
            tlb[page] = None
        self.stats.tlb_misses += misses

    def access_words_batch(self, addrs, n_words, *, coalesced: bool,
                           atomic: bool = False) -> int:
        """Record one access of ``n_words`` words for every address in
        ``addrs`` — the batched equivalent of looping :meth:`access_words`.
        ``n_words`` may be a scalar or an array aligned with ``addrs``
        (per-access widths, e.g. per-shard head arrays of different
        heights).

        Used by the vectorized batch engine: one wave step issues many
        homogeneous accesses at once.  Classification is identical to the
        sequential loop except that a line (or TLB page) already touched
        *within the same batch* counts as a hit without consulting the
        model again — faithful to hardware, where the first access of a
        warp-synchronous wave leaves the line MRU-resident for the rest.
        Returns the number of transactions issued.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        m = int(addrs.size)
        if m == 0:
            return 0
        stats = self.stats

        # TLB: run unique pages (first-occurrence order) through the LRU;
        # repeats within the batch are guaranteed hits.
        self._tlb_access_many(
            dict.fromkeys((addrs // self.tlb_page_words).tolist()))

        # Lines covered by each access (chunk accesses span 1–2 lines).
        wpl = self.words_per_line
        nw = np.asarray(n_words, dtype=np.int64)
        first = addrs // wpl
        last = (addrs + (nw - 1)) // wpl
        lines = first.tolist()
        total = m
        if lines != last.tolist():
            # Each access's lines first..last, padded to the widest
            # access with repeats of its own last line: a repeat of a
            # line already listed changes neither the deduplicated set
            # nor its first-occurrence order.
            spans = last - first
            total += int(spans.sum())
            widest = np.arange(int(spans.max()) + 1)
            lines = np.minimum(first[:, None] + widest,
                               last[:, None]).ravel().tolist()
        uniq_lines = dict.fromkeys(lines)
        hits, misses = self.l2.access_many(uniq_lines)
        dup_hits = total - len(uniq_lines)  # in-batch repeats: hits
        stats.transactions += total
        stats.l2_hit_transactions += hits + dup_hits
        stats.dram_transactions += misses
        if coalesced:
            stats.l2_coalesced += hits + dup_hits
            stats.dram_coalesced += misses
            stats.coalesced_accesses += m
        else:
            stats.l2_scattered += hits + dup_hits
            stats.dram_scattered += misses
            stats.scalar_accesses += m
        if atomic:
            stats.atomic_ops += m
        stats.bytes_requested += int(nw.sum()) * WORD_BYTES if nw.ndim \
            else m * int(nw) * WORD_BYTES
        return total

    def record_atomic_conflicts(self, n: int) -> None:
        """Record ``n`` serialized same-destination atomics in one warp."""
        self.stats.atomic_conflicts += n

    def record_compute(self, amount: int, divergent: bool = False) -> None:
        self.stats.instructions += amount
        if divergent:
            self.stats.divergent_instructions += amount

    def record_spill(self, n: int) -> None:
        self.stats.spill_accesses += n

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.stats = TraceStats()
        self.l2.stats.reset()
        self._tlb.clear()

    def warm_words(self, addr: int, n_words: int) -> None:
        """Warm the L2 with the lines of a word range (post-bulk-build)."""
        self.l2.warm(self.lines_of(addr, n_words))
