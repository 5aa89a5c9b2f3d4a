"""updateDownPtrs — Algorithm 4.10.

After a split or merge moves keys between chunks at level *i*, any of
those keys that also exist at level *i+1* have stale down pointers.
Staleness is benign (the enclosing chunk remains laterally reachable,
Section 4.3) but lengthens traversals, so the mutating team repairs the
pointers: one descent to level *i+1* for the smallest moved key, then a
lateral walk per key (the keys ascend, so each search resumes from the
previous upper chunk — the ``upperCh`` reuse in the pseudocode).
"""

from __future__ import annotations

from ..gpu import events as ev
from . import constants as C
from . import team
from .locks import find_and_lock_enclosing, unlock_chunk
from .traversal import find_lateral, search_down_to_level


def update_down_ptr(sl, k: int, upper_ptr: int, upper_kvs, target_chunk: int):
    """Atomically re-point ``k``'s entry in a locked upper chunk."""
    idx = team.index_of_key(k, upper_kvs, sl.geo)
    if idx == C.NONE_TID:
        return False
    yield ev.WordWrite(sl.layout.entry_addr(upper_ptr, idx),
                       C.pack_kv(k, target_chunk))
    return True


def update_down_ptrs(sl, level: int, moved_keys, lower_moved_ch: int):
    """Repair level-(level+1) down pointers for ``moved_keys`` (ascending
    keys now residing in ``lower_moved_ch`` at ``level``)."""
    if not moved_keys or level + 1 >= sl.layout.max_level:
        return
    upper_ch = yield from search_down_to_level(sl, level + 1, moved_keys[0])
    for k in moved_keys:
        found, upper_enc, _kvs = yield from find_lateral(sl, k, upper_ch)
        upper_ch = upper_enc          # keys ascend: resume from here
        if not found:
            continue
        locked_ptr, locked_kvs = yield from find_and_lock_enclosing(
            sl, upper_enc, k)
        # Re-verify the key still lives in (or right of) the moved-to
        # chunk, then point the upper entry at its current enclosing
        # chunk at `level`.
        still_there, lower_enc, _ = yield from find_lateral(
            sl, k, lower_moved_ch)
        if still_there:
            yield from update_down_ptr(sl, k, locked_ptr, locked_kvs,
                                       lower_enc)
            sl.metrics.downptr_updates += 1
        yield from unlock_chunk(sl, locked_ptr)
        upper_ch = locked_ptr
