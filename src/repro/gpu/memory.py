"""Simulated global device memory.

Global memory is a flat array of 64-bit words (every GFSL chunk entry and
every M&C node field is an 8-byte quantity, Section 4.1).  Addresses used
throughout the simulator are *word* addresses; byte addresses are derived
only when mapping accesses onto cache lines.

The class provides the primitive accesses the algorithms need:

* ``read_word`` / ``write_word`` — atomic 64-bit loads/stores,
* ``cas_word`` — the CUDA ``atomicCAS`` used for chunk locks,
* ``atomic_add`` / ``atomic_exch`` — pool allocation and counters,
* ``read_range`` / ``write_range`` — coalesced team-wide accesses.

It performs *no* cost accounting; see :mod:`repro.gpu.tracer` for the
transaction/coalescing model layered on top.
"""

from __future__ import annotations

import numpy as np

WORD_BYTES = 8

_MASK64 = (1 << 64) - 1


class GlobalMemory:
    """Flat simulated device memory of ``num_words`` 64-bit words."""

    def __init__(self, num_words: int):
        if num_words <= 0:
            raise ValueError("memory size must be positive")
        self._words = np.zeros(num_words, dtype=np.uint64)
        # A plain attribute: every access's bounds check reads it, and
        # the array is never resized.
        self.num_words = int(self._words.shape[0])
        # Pre-mutation hook ``(addr, n) -> None`` installed by the epoch
        # manager only while a snapshot pin is live; None (the default and
        # the steady state) keeps every mutator on the exact pre-epoch
        # code path — the byte-identity suites depend on that.
        self.write_barrier = None

    # -- introspection -------------------------------------------------
    @property
    def num_bytes(self) -> int:
        return self.num_words * WORD_BYTES

    def _check(self, addr: int, n: int = 1) -> None:
        if addr < 0 or addr + n > self.num_words:
            raise IndexError(
                f"device memory access out of bounds: addr={addr} n={n} "
                f"size={self.num_words}"
            )

    # -- scalar atomics --------------------------------------------------
    def read_word(self, addr: int) -> int:
        self._check(addr)
        return int(self._words[addr])

    def write_word(self, addr: int, value: int) -> None:
        self._check(addr)
        if self.write_barrier is not None:
            self.write_barrier(addr, 1)
        self._words[addr] = np.uint64(value & _MASK64)

    def cas_word(self, addr: int, expected: int, new: int) -> int:
        """Compare-and-swap; returns the *old* value (CUDA semantics)."""
        self._check(addr)
        old = int(self._words[addr])
        if old == (expected & _MASK64):
            if self.write_barrier is not None:
                self.write_barrier(addr, 1)
            self._words[addr] = np.uint64(new & _MASK64)
        return old

    def atomic_add(self, addr: int, delta: int) -> int:
        """Atomic fetch-and-add; returns the old value."""
        self._check(addr)
        old = int(self._words[addr])
        if self.write_barrier is not None:
            self.write_barrier(addr, 1)
        self._words[addr] = np.uint64((old + delta) & _MASK64)
        return old

    def atomic_exch(self, addr: int, value: int) -> int:
        """Atomic exchange; returns the old value."""
        self._check(addr)
        old = int(self._words[addr])
        if self.write_barrier is not None:
            self.write_barrier(addr, 1)
        self._words[addr] = np.uint64(value & _MASK64)
        return old

    # -- team-wide (coalesced) accesses -----------------------------------
    def read_range(self, addr: int, n: int) -> np.ndarray:
        """Snapshot ``n`` consecutive words starting at ``addr``.

        Returns a *copy* so a team's view is a stable snapshot even while
        other teams mutate the underlying memory.
        """
        self._check(addr, n)
        return self._words[addr : addr + n].copy()

    def write_range(self, addr: int, values: np.ndarray) -> None:
        n = len(values)
        self._check(addr, n)
        if self.write_barrier is not None:
            self.write_barrier(addr, n)
        self._words[addr : addr + n] = np.asarray(values, dtype=np.uint64)

    # -- bulk (host-side) initialization ----------------------------------
    def raw(self) -> np.ndarray:
        """The underlying word array, for vectorized host-side bulk
        builds (prefill).  Device-side code must never touch this."""
        return self._words
