"""Encodings and special values of the GFSL structure (Section 4.1).

Chunk entries are 8 bytes: key in the lower 32 bits, value in the upper
32 (Figure 3.1).  Three key values are reserved:

* ``NEG_INF_KEY`` (0) — the sentinel stored in the first entry of the
  first chunk of every level (the paper's −∞),
* ``EMPTY_KEY`` (0xFFFFFFFF) — an empty entry and the ∞ max-field value
  of the last chunk in a level,
* user keys therefore live in ``[MIN_USER_KEY, MAX_USER_KEY]``.

Pointers are 32-bit indexes into the chunk memory pool ("for chunks of
size 128B this index size can cover addresses in 512GB of memory").
``NULL_PTR`` (0xFFFFFFFF) marks the end of a level.

The lock field holds one of three states; ``ZOMBIE`` is terminal — a
chunk's contents never change after it becomes a zombie.
"""

from __future__ import annotations

MASK32 = 0xFFFFFFFF

# --- keys -------------------------------------------------------------
NEG_INF_KEY = 0
EMPTY_KEY = MASK32          # the paper's ∞
MIN_USER_KEY = 1
MAX_USER_KEY = MASK32 - 1

# --- pointers ----------------------------------------------------------
NULL_PTR = MASK32

# --- lock states --------------------------------------------------------
UNLOCKED = 0
LOCKED = 1
ZOMBIE = 2

# --- cooperative-decision sentinels (Table 4.2) ---------------------------
NONE_TID = -1               # the paper's NONE: no lane voted true

# --- tuning ---------------------------------------------------------------
# A merge is triggered when removal would leave <= DSIZE/3 live entries
# ("DSIZE/3 in this work", Section 4.2.3).
MERGE_DIVISOR = 3

# Probability that a split raises a key to the next level.  Section 5.2
# found p_chunk ~= 1 best in all mixtures; it is the structure default.
DEFAULT_P_CHUNK = 1.0


def pack_kv(key: int, value: int) -> int:
    """Pack a key-value pair into one 64-bit chunk entry."""
    return (key & MASK32) | ((value & MASK32) << 32)


def key_of(word: int) -> int:
    return word & MASK32


def val_of(word: int) -> int:
    return (word >> 32) & MASK32


EMPTY_KV = pack_kv(EMPTY_KEY, 0)


# --- the key contract (DESIGN.md §5) -------------------------------------
def check_key(key: int) -> None:
    """Raise ``ValueError`` unless ``key`` (or a window bound) is a user key."""
    if not MIN_USER_KEY <= key <= MAX_USER_KEY:
        raise ValueError(
            f"key {key} outside user range [{MIN_USER_KEY}, {MAX_USER_KEY}] "
            "(0 and 2^32-1 are the ±∞ sentinels)")


def check_value(value: int) -> None:
    """Raise ``ValueError`` unless ``value`` fits an entry's upper 32 bits."""
    if not 0 <= value <= MASK32:
        raise ValueError(f"value {value} outside [0, {MASK32}]")


def check_array(check, arr) -> None:
    """Apply ``check`` to every entry of an int array: each rule is an
    interval, so the smallest and the largest entry decide."""
    if len(arr):
        check(int(arr.min()))
        check(int(arr.max()))
