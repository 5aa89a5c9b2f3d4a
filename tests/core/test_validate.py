"""The validators must actually catch corruption — seed defects into a
healthy structure and check each invariant fires."""

import numpy as np
import pytest

from repro.core import (GFSL, InvariantViolation, bulk_build_into,
                        validate_structure)
from repro.core import constants as C
from repro.core.chunk import keys_vec, pack_next
from repro.core.validate import (bottom_items, count_zombies, head_ptr_host,
                                 level_chain, level_items, read_chunk_host,
                                 structure_height)
from tests.core import scalar_validate as oracle
from tests.core.test_traversal_zombies import built, zombify_chunk


def healthy():
    sl = GFSL(capacity_chunks=512, team_size=16, seed=1)
    keys = np.arange(10, 2000, 10)
    bulk_build_into(sl, keys, keys % 7)
    return sl


def first_data_chunk(sl, level=0):
    chain = [p for p, _ in level_chain(sl, level)]
    return chain[1]  # chain[0] is the initial −∞ chunk


def test_healthy_structure_passes():
    sl = healthy()
    stats = validate_structure(sl)
    assert stats["zombies"] == 0
    assert stats["height"] >= 1


def test_detects_unsorted_chunk():
    sl = healthy()
    ptr = first_data_chunk(sl)
    a = sl.layout.entry_addr(ptr, 0)
    b = sl.layout.entry_addr(ptr, 1)
    va, vb = sl.ctx.mem.read_word(a), sl.ctx.mem.read_word(b)
    sl.ctx.mem.write_word(a, vb)
    sl.ctx.mem.write_word(b, va)
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_key_above_max_field():
    sl = healthy()
    ptr = first_data_chunk(sl)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    sl.ctx.mem.write_word(
        sl.layout.entry_addr(ptr, sl.geo.next_idx),
        pack_next(1, int(kvs[sl.geo.next_idx]) >> 32))  # max ← 1
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_hole_in_data_array():
    sl = healthy()
    ptr = first_data_chunk(sl)
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, 1), C.EMPTY_KV)
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_left_locked_chunk():
    sl = healthy()
    ptr = first_data_chunk(sl)
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, sl.geo.lock_idx),
                          C.LOCKED)
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_subset_violation():
    sl = healthy()
    assert structure_height(sl) >= 1
    # Plant a key at level 1 that does not exist at level 0.
    ptr = first_data_chunk(sl, level=1)
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, 0),
                          C.pack_kv(3, 0))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_missing_neg_inf():
    sl = healthy()
    first = head_ptr_host(sl, 0)
    # Overwrite the −∞ entry with a user key.
    sl.ctx.mem.write_word(sl.layout.entry_addr(first, 0), C.pack_kv(4, 0))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_cycle():
    sl = healthy()
    ptr = first_data_chunk(sl)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    max_f = int(kvs[sl.geo.next_idx]) & C.MASK32
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, sl.geo.next_idx),
                          pack_next(max_f, ptr))  # self-loop
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_overlapping_chunks():
    sl = healthy()
    chain = [p for p, _ in level_chain(sl, 0)]
    second = chain[2]
    # Shrink the first data chunk's max below its successor's min is
    # fine; instead raise a key in the second chunk below the first's
    # max to create an overlap.
    first = chain[1]
    fk = sl.ctx.mem.read_range(sl.layout.chunk_addr(first), sl.geo.n)
    small_key = int(fk[0]) & C.MASK32
    sl.ctx.mem.write_word(sl.layout.entry_addr(second, 0),
                          C.pack_kv(small_key, 0))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_dangling_down_pointer():
    sl = healthy()
    ptr = first_data_chunk(sl, level=1)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    key0 = int(kvs[0]) & C.MASK32
    # Point the key at the last chunk in the bottom level — its
    # enclosing chunk is not laterally reachable from there.
    last_bottom = [p for p, _ in level_chain(sl, 0)][-1]
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, 0),
                          C.pack_kv(key0, last_bottom))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def set_next(sl, ptr, target):
    """Redirect ``ptr``'s next pointer, keeping its max field."""
    addr = sl.layout.entry_addr(ptr, sl.geo.next_idx)
    sl.ctx.mem.write_word(addr, pack_next(sl.ctx.mem.read_word(addr)
                                          & C.MASK32, target))


def down_entry(sl):
    """A level-1 key whose down pointer is an interior level-0 chunk:
    ``(entry address, key, target chunk)``."""
    chain0 = [p for p, _ in level_chain(sl, 0)]
    for ptr, kvs in level_chain(sl, 1, include_zombies=False):
        for i in range(sl.geo.dsize):
            key, target = C.key_of(int(kvs[i])), C.val_of(int(kvs[i]))
            if key != C.EMPTY_KEY and target in chain0[1:-1]:
                return sl.layout.entry_addr(ptr, i), key, target
    raise AssertionError("no interior down pointer")


def test_detects_zombie_as_last_chunk():
    sl = healthy()
    last = [p for p, _ in level_chain(sl, 0)][-1]
    sl.ctx.mem.write_word(sl.layout.entry_addr(last, sl.geo.lock_idx),
                          C.ZOMBIE)
    with pytest.raises(InvariantViolation,
                       match="level 0: last chunk in chain is a zombie"):
        validate_structure(sl)


def test_down_pointer_through_zombie_passes():
    """A merge leaves upper-level down pointers on the zombie until they
    are redirected; the key is reached by walking past it."""
    sl = built(range(10, 2000, 10), fill=0.3)
    addr, key, target = down_entry(sl)
    successor = zombify_chunk(sl, target)
    for i in range(sl.geo.dsize):       # only the successor holds the key
        sl.ctx.mem.write_word(sl.layout.entry_addr(target, i), C.EMPTY_KV)
    assert C.val_of(sl.ctx.mem.read_word(addr)) == target
    assert key in keys_vec(read_chunk_host(sl, successor))
    stats = validate_structure(sl)
    assert stats["zombies"] == 1
    assert stats == oracle.validate_structure(sl)


def test_down_pointer_off_the_chain_below():
    """A down pointer to a chunk no level-0 walk meets (an unlinked
    zombie) is judged by where that chunk's next pointers lead."""
    sl = healthy()
    addr, key, target = down_entry(sl)
    mem = sl.ctx.mem
    off = sl.pool.allocated(mem)
    sl.pool.set_allocated(mem, off + 1)
    mem.write_word(sl.layout.entry_addr(off, sl.geo.lock_idx), C.ZOMBIE)
    set_next(sl, off, target)
    mem.write_word(addr, C.pack_kv(key, off))
    assert off not in [p for p, _ in level_chain(sl, 0)]
    assert validate_structure(sl) == oracle.validate_structure(sl)

    set_next(sl, off, C.NULL_PTR)
    message = (f"down pointer of key {key} at level 1 cannot reach its "
               f"enclosing chunk below")
    for validate in (validate_structure, oracle.validate_structure):
        with pytest.raises(InvariantViolation, match=message):
            validate(sl)


def test_cycle_after_corrupt_chunk_reports_the_chunk():
    """Violations come in chain order: a chunk checked before the walk
    meets a cycle is reported, not the cycle."""
    sl = healthy()
    chain = [p for p, _ in level_chain(sl, 0)]
    sl.ctx.mem.write_word(sl.layout.entry_addr(chain[1], 1), C.EMPTY_KV)
    set_next(sl, chain[3], chain[2])
    with pytest.raises(InvariantViolation,
                       match=f"level 0 chunk {chain[1]}: live entries not "
                             f"contiguous"):
        validate_structure(sl)


def with_zombies():
    """Team size 8 keeps the merge band wide: deleting every other key
    merges chunks and leaves zombies behind."""
    sl = GFSL(capacity_chunks=512, team_size=8, seed=3)
    keys = np.arange(10, 2000, 10)
    bulk_build_into(sl, keys, keys % 7)
    for k in range(10, 2000, 20):
        sl.delete(k)
    return sl


def test_helpers():
    for sl, zombies in ((healthy(), False), (with_zombies(), True)):
        mem = sl.ctx.mem
        scalar = sum(mem.read_word(sl.layout.entry_addr(p, sl.geo.lock_idx))
                     == C.ZOMBIE for p in range(sl.pool.allocated(mem)))
        assert (scalar > 0) is zombies
        assert count_zombies(sl) == sl.zombie_count() == scalar
        assert bottom_items(sl) == sl.items() == oracle.level_items(sl, 0)
        assert len(level_items(sl, 0)) == len(sl.keys())
        for level in range(structure_height(sl) + 1):
            assert level_items(sl, level) == oracle.level_items(sl, level)
        assert structure_height(sl) == validate_structure(sl)["height"]
        assert validate_structure(sl) == oracle.validate_structure(sl)
        if zombies:
            assert [k for k, _ in sl.items()] == list(range(20, 2000, 20))
