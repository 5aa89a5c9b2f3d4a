"""Reference oracle: the ``np.unique`` body of ``access_words_batch``.

``TransactionTracer.access_words_batch`` deduplicates a batch's TLB
pages and cache lines with an order-preserving ``dict.fromkeys``.  This
module keeps the version it replaced — ``np.unique(return_index=True)``
plus an argsort of the first indices to restore first-occurrence order
— so the fuzz can assert the two classify every batch identically.
Only tests import it.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.memory import WORD_BYTES


def access_words_batch(tracer, addrs, n_words, *, coalesced: bool,
                       atomic: bool = False) -> int:
    """``tracer.access_words_batch(addrs, n_words, ...)``, deduplicating
    with ``np.unique``; mutates ``tracer`` the same way."""
    addrs = np.asarray(addrs, dtype=np.int64)
    m = int(addrs.size)
    if m == 0:
        return 0
    stats = tracer.stats

    pages = addrs // tracer.tlb_page_words
    uniq_pages, first_idx = np.unique(pages, return_index=True)
    tracer._tlb_access_many(uniq_pages[np.argsort(first_idx)].tolist())

    wpl = tracer.words_per_line
    nw = np.asarray(n_words, dtype=np.int64)
    first = addrs // wpl
    last = (addrs + (nw - 1)) // wpl
    counts = last - first + 1
    total = int(counts.sum())
    if total == m:
        lines = first
    else:
        starts = np.repeat(first, counts)
        offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                            counts)
        lines = starts + offs
    uniq_lines, first_idx = np.unique(lines, return_index=True)
    hits, misses = tracer.l2.access_many(
        uniq_lines[np.argsort(first_idx)].tolist())
    dup_hits = total - int(uniq_lines.size)
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
