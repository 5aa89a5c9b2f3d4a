"""Corruption fuzz: the level-at-a-time validator against the scalar
oracle in ``scalar_validate``.

Each case replays a delete-heavy mix (so merges leave zombies behind),
then applies single-word corruptions one at a time and restores the word
after each.  For every corruption both validators must agree exactly:
identical stats, or an identical exception type and message — the first
violation in chunk-by-chunk order.
"""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.validate import (count_zombies, level_chain, structure_height,
                                 validate_structure)
from repro.engine import OpBatch, make_backend, make_structure
from repro.workloads.generator import Mixture, generate
from tests.core import scalar_validate as oracle

CORRUPTIONS_PER_CASE = 80

# (structure, team size, backend, key range, ops)
CASES = [
    ("gfsl", 8, "interleaved", 1000, 800),
    ("gfsl", 16, "vectorized", 1500, 1200),
    ("gfsl", 32, "interleaved", 3000, 2500),
    ("gfsl", 32, "vectorized", 3000, 2500),
    ("gfsl@4", 8, "vectorized", 2000, 1500),
    ("gfsl@4", 16, "interleaved", 3000, 2000),
]


def outcome(validate, sl):
    try:
        return "ok", validate(sl)
    except Exception as exc:    # compared by type and message
        return type(exc).__name__, str(exc)


def chains(sl):
    return [[p for p, _ in level_chain(sl, level)]
            for level in range(structure_height(sl) + 1)]


def corruption(sl, rng, levels):
    """One random corruption as a list of ``(addr, new_word)`` writes: a
    single word, or two for a swap of adjacent data entries."""
    geo, lay, mem = sl.geo, sl.layout, sl.ctx.mem
    level = int(rng.integers(len(levels)))
    chain = levels[level]
    ptr = int(rng.choice(chain))

    def word(entry):
        return mem.read_word(lay.entry_addr(ptr, entry))

    i = int(rng.integers(geo.dsize))
    nxt = word(geo.next_idx)
    kind = rng.integers(9)
    if kind == 0:                               # data entry emptied
        return [(lay.entry_addr(ptr, i), C.EMPTY_KV)]
    if kind == 1:                               # key rewritten
        old = C.key_of(word(i))
        key = int(rng.choice([0, max(old - 1, 0), old + 1,
                              int(rng.integers(1, 4000))]))
        return [(lay.entry_addr(ptr, i), C.pack_kv(key, C.val_of(word(i))))]
    if kind == 2:                               # lock state set
        state = int(rng.choice([C.UNLOCKED, C.LOCKED, C.ZOMBIE, 7]))
        return [(lay.entry_addr(ptr, geo.lock_idx), state)]
    next_addr = lay.entry_addr(ptr, geo.next_idx)
    if kind == 3:                               # max field rewritten / ∞
        old = C.key_of(nxt)
        key = int(rng.choice([C.EMPTY_KEY, max(old - 1, 0), old + 1,
                              int(rng.integers(1, 4000))]))
        return [(next_addr, C.pack_kv(key, C.val_of(nxt)))]
    if kind == 4:                               # next → inside the chain
        target = int(rng.choice(chain))
        return [(next_addr, C.pack_kv(C.key_of(nxt), target))]
    if kind == 5:                               # next → beyond the pool
        target = lay.capacity_chunks + int(rng.integers(0, 3))
        return [(next_addr, C.pack_kv(C.key_of(nxt), target))]
    if kind == 6 and level > 0:                 # down pointer redirected
        below = levels[level - 1]
        old = C.val_of(word(i))
        if old in below and rng.random() < 0.5:
            pos = below.index(old) + int(rng.integers(-2, 3))
            target = below[min(max(pos, 0), len(below) - 1)]
        else:                       # any allocated chunk, on a chain or not
            target = int(rng.integers(sl.pool.allocated(mem)))
        return [(lay.entry_addr(ptr, i), C.pack_kv(C.key_of(word(i)),
                                                   target))]
    j = min(i, geo.dsize - 2)                   # adjacent entries swapped
    return [(lay.entry_addr(ptr, j), word(j + 1)),
            (lay.entry_addr(ptr, j + 1), word(j))]


def shards_of(kind, team_size, backend, key_range, n_ops):
    wl = generate(Mixture(10, 70, 20), key_range, n_ops, seed=team_size)
    structure = make_structure(kind, wl, team_size=team_size)
    make_backend(backend).execute(structure, OpBatch.from_workload(wl))
    return getattr(structure, "shards", [structure])


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_corruptions_match_scalar_oracle(case):
    rng = np.random.default_rng(CASES.index(case))
    shards = shards_of(*case)
    assert sum(count_zombies(s) for s in shards) > 0
    rejected = 0
    for sl in shards:
        assert (outcome(validate_structure, sl)
                == outcome(oracle.validate_structure, sl))
        assert outcome(validate_structure, sl)[0] == "ok"
        levels = chains(sl)
        mem = sl.ctx.mem
        for _ in range(CORRUPTIONS_PER_CASE // len(shards)):
            writes = corruption(sl, rng, levels)
            undo = [(addr, mem.read_word(addr)) for addr, _ in writes]
            for addr, new in writes:
                mem.write_word(addr, new)
            got = outcome(validate_structure, sl)
            want = outcome(oracle.validate_structure, sl)
            for addr, old in undo:
                mem.write_word(addr, old)
            assert got == want
            rejected += got[0] != "ok"
    assert rejected > 0
