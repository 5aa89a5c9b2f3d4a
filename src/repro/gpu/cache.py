"""Set-associative LRU model of the GPU's L2 cache.

The headline result of the paper hinges on the L2: for a 10K key range the
whole structure fits in the 1.75 MB L2 and M&C's scattered accesses are
cheap; once the structure outgrows the L2, every uncoalesced access turns
into a DRAM transaction and M&C "melts down" (Section 5.3) while GFSL's
coalesced chunk reads stay nearly flat.

The cache tracks 128-byte lines (the coalescing granularity on Maxwell)
in a classic set-associative LRU arrangement.  Writes are modeled as
write-back/write-allocate, matching how Maxwell's L2 handles global
stores; for the throughput model only the hit/miss classification
matters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class L2Cache:
    """Set-associative LRU cache over line addresses.

    ``access(line_addr)`` returns ``True`` on a hit.  Line addresses are
    byte addresses divided by the line size; callers (the tracer) perform
    that mapping.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 128, assoc: int = 16):
        if capacity_bytes < line_bytes:
            raise ValueError("cache smaller than one line")
        self.line_bytes = line_bytes
        self.assoc = assoc
        num_lines = capacity_bytes // line_bytes
        self.num_sets = max(1, num_lines // assoc)
        # One dict per set, insertion-ordered: oldest entry is LRU.
        self._sets: list[dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _set_for(self, line_addr: int) -> dict[int, None]:
        return self._sets[line_addr % self.num_sets]

    def access(self, line_addr: int) -> bool:
        """Touch a line; returns True on hit.  Misses allocate the line,
        evicting the LRU entry of the set if full."""
        s = self._set_for(line_addr)
        if line_addr in s:
            # Move to MRU position.
            del s[line_addr]
            s[line_addr] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(s) >= self.assoc:
            # Evict LRU (first inserted).
            s.pop(next(iter(s)))
        s[line_addr] = None
        return False

    def access_many(self, line_addrs) -> tuple[int, int]:
        """Touch a sequence of line addresses in order; returns
        ``(hits, misses)``.  Classification is exactly the
        :meth:`access` loop — this entry point just keeps the per-line
        LRU bookkeeping inside the cache (one Python call per batch
        instead of one per line)."""
        hits = 0
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        for la in line_addrs:
            s = sets[la % num_sets]
            if la in s:
                del s[la]
                s[la] = None
                hits += 1
            else:
                if len(s) >= assoc:
                    s.pop(next(iter(s)))
                s[la] = None
        misses = len(line_addrs) - hits
        self.stats.hits += hits
        self.stats.misses += misses
        return hits, misses

    def contains(self, line_addr: int) -> bool:
        """Non-mutating lookup (no stats, no LRU update)."""
        return line_addr in self._set_for(line_addr)

    def warm(self, line_addrs) -> None:
        """Pre-load lines without counting stats (used after bulk builds
        so a small structure starts resident, as it would after the real
        prefill kernel).  The final state is that of touching each line
        in order; a contiguous ``range`` gets it in closed form."""
        if isinstance(line_addrs, range) and line_addrs.step == 1:
            self._warm_range(line_addrs.start, line_addrs.stop)
            return
        for la in line_addrs:
            s = self._set_for(la)
            if la in s:
                del s[la]
            elif len(s) >= self.assoc:
                s.pop(next(iter(s)))
            s[la] = None

    def _warm_range(self, first: int, stop: int) -> None:
        """Warm lines ``first..stop-1`` set by set: a set ends up holding
        its old lines outside the range (old order), then the range's
        lines that map to it (ascending), keeping the last ``assoc``.
        Only the ``min(num_sets, stop - first)`` sets the range maps to
        are visited."""
        num_sets, assoc = self.num_sets, self.assoc
        for la in range(first, min(stop, first + num_sets)):
            s = self._sets[la % num_sets]
            lines = list(range(la, stop, num_sets)[-assoc:])
            if len(lines) < assoc:
                kept = [x for x in s if not first <= x < stop]
                lines = (kept + lines)[-assoc:]
            s.clear()
            s.update(dict.fromkeys(lines))

    def flush(self) -> None:
        for s in self._sets:
            s.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
