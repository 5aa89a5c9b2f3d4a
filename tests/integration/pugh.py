"""A classic sequential skiplist (Pugh, CACM 1990) as a host-side oracle.

This is the CPU ancestor both GPU designs descend from: M&C is the
lock-free variant of it ported to the GPU, GFSL the chunked redesign.
It runs on plain host memory (no simulator); only tests import it.  It
serves three purposes:

* a differential-testing oracle — random operation programs are run
  against GFSL, M&C, and this structure, and every response must agree
  (``tests/integration/test_differential.py``),
* a reference for the expected-O(log n) cost shape (node visits are
  counted, so tests can compare traversal-length distributions),
* the "CPU implementation" end of the paper's motivation ("shown to
  achieve a speedup over the CPU implementation", §1).
"""

from __future__ import annotations

import numpy as np


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: int, value: int, height: int):
        self.key = key
        self.value = value
        self.forward: list["_Node | None"] = [None] * height


class PughSkiplist:
    """Textbook sequential skiplist over integer keys."""

    NEG_INF = -1

    def __init__(self, max_level: int = 32, p: float = 0.5, seed: int = 0):
        if not 1 <= max_level <= 64:
            raise ValueError("max_level out of range")
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        self.max_level = max_level
        self.p = p
        self.rng = np.random.default_rng(seed)
        self.head = _Node(self.NEG_INF, 0, max_level)
        self.level = 1          # levels currently in use
        self.size = 0
        self.visits = 0         # node hops, for cost-shape tests

    # ------------------------------------------------------------------
    def _random_height(self) -> int:
        h = 1
        while h < self.max_level and self.rng.random() < self.p:
            h += 1
        return h

    def _find_preds(self, key: int) -> list[_Node]:
        preds = [self.head] * self.max_level
        node = self.head
        for lvl in range(self.level - 1, -1, -1):
            nxt = node.forward[lvl]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[lvl]
                self.visits += 1
            self.visits += 1
            preds[lvl] = node
        return preds

    # ------------------------------------------------------------------
    def contains(self, key: int) -> bool:
        """Membership test."""
        self._check_key(key)
        node = self._find_preds(key)[0].forward[0]
        return node is not None and node.key == key

    def get(self, key: int):
        """Value lookup; None when absent."""
        self._check_key(key)
        node = self._find_preds(key)[0].forward[0]
        return node.value if node is not None and node.key == key else None

    def insert(self, key: int, value: int = 0) -> bool:
        """Insert; False on duplicate."""
        self._check_key(key)
        preds = self._find_preds(key)
        nxt = preds[0].forward[0]
        if nxt is not None and nxt.key == key:
            return False
        height = self._random_height()
        if height > self.level:
            self.level = height
        node = _Node(key, value, height)
        for lvl in range(height):
            node.forward[lvl] = preds[lvl].forward[lvl]
            preds[lvl].forward[lvl] = node
        self.size += 1
        return True

    def delete(self, key: int) -> bool:
        """Remove; False when absent."""
        self._check_key(key)
        preds = self._find_preds(key)
        node = preds[0].forward[0]
        if node is None or node.key != key:
            return False
        for lvl in range(len(node.forward)):
            if preds[lvl].forward[lvl] is node:
                preds[lvl].forward[lvl] = node.forward[lvl]
        while self.level > 1 and self.head.forward[self.level - 1] is None:
            self.level -= 1
        self.size -= 1
        return True

    def update(self, key: int, value: int) -> bool:
        """In-place value rewrite; False when absent."""
        self._check_key(key)
        node = self._find_preds(key)[0].forward[0]
        if node is None or node.key != key:
            return False
        node.value = value
        return True

    # ------------------------------------------------------------------
    def items(self) -> list[tuple[int, int]]:
        """All (key, value) pairs in order."""
        out = []
        node = self.head.forward[0]
        while node is not None:
            out.append((node.key, node.value))
            node = node.forward[0]
        return out

    def keys(self) -> list[int]:
        """Sorted keys."""
        return [k for k, _ in self.items()]

    def range_query(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Inclusive ordered window query."""
        self._check_key(lo)
        self._check_key(hi)
        if lo > hi:
            return []
        node = self._find_preds(lo)[0].forward[0]
        out = []
        while node is not None and node.key <= hi:
            out.append((node.key, node.value))
            node = node.forward[0]
        return out

    def min_key(self):
        """Smallest key, or None."""
        node = self.head.forward[0]
        return node.key if node is not None else None

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    @staticmethod
    def _check_key(key: int) -> None:
        if not 1 <= key <= 2**32 - 2:
            raise ValueError("key outside user range [1, 2^32-2]")
