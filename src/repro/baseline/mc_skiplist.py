"""The M&C baseline: a classic lock-free skiplist, one op per thread.

This is the comparator of every experiment in Chapter 5 — Misra &
Chaudhuri's CUDA port of the Herlihy–Shavit lock-free skiplist
[MC12b].  Towers get a pre-drawn geometric height (``p_key``, best at
0.5 per Section 5.2); ``add``/``remove`` use the mark-bit + snip
protocol; ``contains`` is wait-free.

Every operation is a generator over scalar :class:`WordRead`/CAS events:
each pointer hop is its own uncoalesced transaction and its own entry in
the dependent-latency chain, which is exactly why this design "melts
down" once the structure outgrows the L2 (Section 5.3).  Compute events
are flagged divergent — 32 threads per warp run 32 unrelated traversals,
so branch replay inflates the issue count (Table 5.2's profile).
"""

from __future__ import annotations

import numpy as np

from ..gpu import events as ev
from ..gpu.device import DeviceConfig
from ..gpu.kernel import GPUContext
from ..gpu.occupancy import KernelResources
from ..core import constants as C
from ..metrics.counters import MetricsCollector
from . import node as N

# Resource profile calibrated against Table 5.2: the compiler settles at
# 42 registers, and the thread-local pred/succ path arrays live in local
# memory regardless of the register budget (~23% spill traffic at every
# launch shape).
MC_KERNEL = KernelResources(regs_demanded=42, intrinsic_spill=0.23,
                            spill_accesses_per_reg=0.30,
                            lanes_per_op=1,
                            op_overhead_instructions=4.0,
                            divergence_replay=1.2)

DEFAULT_P_KEY = 0.5


class MCSkiplist:
    """Lock-free skiplist on a simulated GPU device."""

    #: The registry's capability flag: no chunks, hence no vectorized
    #: kernels, ordered walks or snapshots.
    chunked = False

    def __init__(self, capacity_words: int, max_level: int = 32,
                 p_key: float = DEFAULT_P_KEY,
                 ctx: GPUContext | None = None,
                 device: DeviceConfig | None = None,
                 base: int | None = None, seed: int = 0xA15E):
        if not 1 <= max_level <= 32:
            raise ValueError("max_level must be in [1, 32]")
        if not 0.0 < p_key < 1.0:
            raise ValueError("p_key must be in (0, 1)")
        self.max_level = max_level
        self.p_key = p_key
        if base is None:
            # Shared device: reserve our own region (mirrors GFSL).
            base = 0 if ctx is None else ctx.reserve(capacity_words)
        self.pool = N.NodePool(base, capacity_words)
        if ctx is None:
            ctx = GPUContext(base + capacity_words, device=device)
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)
        # The same counter block as GFSL (restart counts map onto _find
        # retries), so both structures report comparable op accounting.
        self.metrics = MetricsCollector()
        self._format()

    # ------------------------------------------------------------------
    def _format(self) -> None:
        mem = self.ctx.mem
        self.pool.format(mem)
        # Head and tail sentinels with full towers.
        self.tail = self.pool.host_alloc(mem, N.node_words(self.max_level))
        self.head = self.pool.host_alloc(mem, N.node_words(self.max_level))
        mem.write_word(self.tail, C.EMPTY_KEY)
        mem.write_word(self.tail + 1, self.max_level)
        mem.write_word(self.head, C.NEG_INF_KEY)
        mem.write_word(self.head + 1, self.max_level)
        for l in range(self.max_level):
            mem.write_word(self.tail + N.HEADER_WORDS + l,
                           N.pack_link(C.NULL_PTR))
            mem.write_word(self.head + N.HEADER_WORDS + l,
                           N.pack_link(self.tail))

    def draw_height(self) -> int:
        """Pre-drawn tower height — the paper's M&C input arrays carry a
        level per insert entry (Section 5.1)."""
        h = 1
        while h < self.max_level and self.rng.random() < self.p_key:
            h += 1
        return h

    # -- device helpers ---------------------------------------------------
    def _key_of(self, addr: int):
        word = yield ev.WordRead(addr)
        return C.key_of(word)

    def _link_addr(self, addr: int, level: int) -> int:
        return addr + N.HEADER_WORDS + level

    # -- find (with physical snipping) --------------------------------------
    def _find(self, key: int):
        """Herlihy–Shavit ``find``: locate preds/succs at every level,
        snipping marked nodes with CAS; restarts on CAS failure.
        Returns ``(found, preds, succs)``."""
        L = self.max_level
        while True:  # retry
            retry = False
            preds = [self.head] * L
            succs = [C.NULL_PTR] * L
            pred = self.head
            for level in range(L - 1, -1, -1):
                curr_word = yield ev.WordRead(self._link_addr(pred, level))
                curr = N.link_ptr(curr_word)
                while True:
                    yield ev.Compute(1, divergent=True)
                    succ_word = yield ev.WordRead(self._link_addr(curr, level))
                    succ = N.link_ptr(succ_word)
                    while N.link_marked(succ_word):
                        # Snip the marked node out of this level.
                        old = yield ev.WordCAS(
                            self._link_addr(pred, level),
                            N.pack_link(curr), N.pack_link(succ))
                        if old != N.pack_link(curr):
                            retry = True
                            break
                        curr = succ
                        succ_word = yield ev.WordRead(
                            self._link_addr(curr, level))
                        succ = N.link_ptr(succ_word)
                    if retry:
                        break
                    curr_key = yield from self._key_of(curr)
                    if curr_key < key:
                        pred, curr = curr, succ
                    else:
                        break
                if retry:
                    break
                preds[level] = pred
                succs[level] = curr
            if retry:
                self.metrics.update_restarts += 1
                continue
            found_key = yield from self._key_of(succs[0])
            return found_key == key, preds, succs

    # -- operations -------------------------------------------------------
    def contains_gen(self, key: int):
        """Wait-free membership test (no snipping)."""
        C.check_key(key)
        self.metrics.contains_calls += 1
        pred = self.head
        curr = C.NULL_PTR
        for level in range(self.max_level - 1, -1, -1):
            curr_word = yield ev.WordRead(self._link_addr(pred, level))
            curr = N.link_ptr(curr_word)
            while True:
                yield ev.Compute(1, divergent=True)
                succ_word = yield ev.WordRead(self._link_addr(curr, level))
                while N.link_marked(succ_word):
                    curr = N.link_ptr(succ_word)
                    succ_word = yield ev.WordRead(self._link_addr(curr, level))
                curr_key = yield from self._key_of(curr)
                if curr_key < key:
                    pred, curr = curr, N.link_ptr(succ_word)
                else:
                    break
        curr_key = yield from self._key_of(curr)
        return curr_key == key

    def insert_gen(self, key: int, value: int = 0, height: int | None = None):
        """Lock-free add: bottom-level CAS linearizes, upper levels link
        lazily; ``height`` overrides the geometric tower draw.  Checks at
        the call: a refused op yields no generator."""
        C.check_key(key)
        C.check_value(value)
        return self._insert(key, value, height)

    def _insert(self, key: int, value: int, height: int | None):
        # The tower is drawn on the first step, not at the call: the
        # order of RNG draws fixes the modeled M&C numbers.
        top = height if height is not None else self.draw_height()
        while True:
            found, preds, succs = yield from self._find(key)
            if found:
                return False
            node = yield from self.pool.alloc(top)
            yield ev.WordWrite(node, C.pack_kv(key, value))
            yield ev.WordWrite(node + 1, top)
            for l in range(top):
                yield ev.WordWrite(self._link_addr(node, l),
                                   N.pack_link(succs[l]))
            # Linearize at the bottom level.
            old = yield ev.WordCAS(self._link_addr(preds[0], 0),
                                   N.pack_link(succs[0]), N.pack_link(node))
            if old != N.pack_link(succs[0]):
                continue  # bottom CAS lost: retry whole insert (node leaks,
                #            matching the GPU port's no-reclamation design)
            self.metrics.inserts += 1
            # Link the upper levels.
            for l in range(1, top):
                while True:
                    link = self._link_addr(node, l)
                    cur_word = yield ev.WordRead(link)
                    if N.link_marked(cur_word):
                        return True  # concurrently removed; stop linking
                    if N.link_ptr(cur_word) != succs[l]:
                        old = yield ev.WordCAS(link, cur_word,
                                               N.pack_link(succs[l]))
                        if old != cur_word:
                            continue
                    old = yield ev.WordCAS(self._link_addr(preds[l], l),
                                           N.pack_link(succs[l]),
                                           N.pack_link(node))
                    if old == N.pack_link(succs[l]):
                        break
                    _f, preds, succs = yield from self._find(key)
                    if not _f or succs[0] != node:
                        return True  # node vanished or superseded
            return True

    def delete_gen(self, key: int):
        """Lock-free remove: mark the tower top-down (the bottom-level
        mark is the linearization point), then snip via ``_find``.
        Checks at the call: a refused op yields no generator."""
        C.check_key(key)
        return self._delete(key)

    def _delete(self, key: int):
        found, _preds, succs = yield from self._find(key)
        if not found:
            return False
        node = succs[0]
        height = yield ev.WordRead(node + 1)
        # Mark top-down; bottom-level mark is the linearization point.
        for l in range(height - 1, 0, -1):
            while True:
                word = yield ev.WordRead(self._link_addr(node, l))
                if N.link_marked(word):
                    break
                old = yield ev.WordCAS(self._link_addr(node, l), word,
                                       word | N.MARK_BIT)
                if old == word:
                    break
        while True:
            word = yield ev.WordRead(self._link_addr(node, 0))
            if N.link_marked(word):
                return False  # another thread won the removal
            old = yield ev.WordCAS(self._link_addr(node, 0), word,
                                   word | N.MARK_BIT)
            if old == word:
                self.metrics.deletes += 1
                yield from self._find(key)  # physical snip
                return True

    # -- synchronous wrappers ----------------------------------------------
    def contains(self, key: int) -> bool:
        """Synchronous wrapper around :meth:`contains_gen`."""
        return self.ctx.run(self.contains_gen(key))

    def insert(self, key: int, value: int = 0, height: int | None = None) -> bool:
        """Synchronous wrapper around :meth:`insert_gen`."""
        return self.ctx.run(self.insert_gen(key, value, height))

    def delete(self, key: int) -> bool:
        """Synchronous wrapper around :meth:`delete_gen`."""
        return self.ctx.run(self.delete_gen(key))

    def execute_batch(self, batch, backend="vectorized", commit="per-op"):
        """:func:`repro.engine.execute_batch` on this structure."""
        from ..engine import execute_batch
        return execute_batch(self, batch, backend, commit)

    # -- host-side utilities ------------------------------------------------
    def items(self) -> list[tuple[int, int]]:
        """Quiescent bottom-level walk skipping marked nodes."""
        mem = self.ctx.mem
        out = []
        word = mem.read_word(self._link_addr(self.head, 0))
        addr = N.link_ptr(word)
        while addr != C.NULL_PTR and addr != self.tail:
            kv = mem.read_word(addr)
            nxt = mem.read_word(self._link_addr(addr, 0))
            if not N.link_marked(nxt):
                out.append((C.key_of(kv), C.val_of(kv)))
            addr = N.link_ptr(nxt)
        return out

    def keys(self) -> list[int]:
        """Sorted live keys (host-side, quiescent use)."""
        return [k for k, _ in self.items()]

    def __len__(self) -> int:
        return len(self.items())
