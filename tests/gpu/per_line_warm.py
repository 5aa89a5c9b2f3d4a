"""Reference oracle: the per-line L2 warm loop.

``L2Cache.warm`` builds the final state of a contiguous ``range`` of
lines set by set in closed form.  This module keeps the loop it
replaced for ranges, which touched every line in order (move a resident
line to MRU, else evict the set's LRU line when full, then insert), so
the identity tests can assert both leave every set with the same lines
in the same LRU order.  Only tests import it.
"""

from __future__ import annotations


def warm(cache, line_addrs) -> None:
    """Warm ``cache`` one line at a time, without counting stats."""
    for la in line_addrs:
        s = cache._sets[la % cache.num_sets]
        if la in s:
            del s[la]
        elif len(s) >= cache.assoc:
            s.pop(next(iter(s)))
        s[la] = None
