"""Warp-level intrinsics of the CUDA programming model.

These are the cooperative primitives the paper's algorithms are written
in (Section 2.2): ``__ballot`` collects one boolean per lane into a
bitmap, ``__shfl`` broadcasts a lane's register to the whole team, and
``__clz`` (count leading zeros) converts a ballot into "the highest lane
that voted true" — the precedence rule every GFSL decision relies on.

The implementations operate on numpy arrays holding the per-lane values
of a team; semantics follow CUDA:

* lanes outside the active mask contribute ``False``/0 (the paper warns
  that divergent lanes return default values),
* ballots are ``team_size``-bit words with lane *i* at bit *i*,
* ``shfl`` from an inactive or out-of-range lane returns the caller's
  own value on hardware; here we surface it as 0 and the algorithms are
  written to never read such a lane.
"""

from __future__ import annotations

import numpy as np

BALLOT_BITS = 32  # the hardware ballot word is always 32 bits


def ballot(flags: np.ndarray, active_mask: int | None = None) -> int:
    """``__ballot``: pack per-lane booleans into a bitmap (lane i → bit i).

    ``flags`` has one entry per lane of the team (≤ 32 lanes).  Lanes not
    set in ``active_mask`` vote 0.
    """
    flags = np.asarray(flags, dtype=bool)
    n = flags.shape[0]
    if n > BALLOT_BITS:
        raise ValueError("team larger than a warp")
    word = int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")
    if active_mask is not None:
        word &= active_mask
    return word


def clz32(x: int) -> int:
    """Count leading zeros of a 32-bit word (``__clz``)."""
    if x == 0:
        return 32
    return 32 - int(x).bit_length()


def highest_set_lane(ballot_word: int) -> int:
    """Highest lane index with its ballot bit set, or -1 if none.

    This is the paper's ``32 - clz(bal) - 1`` idiom (Algorithm 4.3),
    giving precedence to higher tIds.
    """
    if ballot_word == 0:
        return -1
    return BALLOT_BITS - clz32(ballot_word) - 1


def lowest_set_lane(ballot_word: int) -> int:
    """Lowest lane index with its ballot bit set, or -1 if none
    (``__ffs(bal) - 1``)."""
    if ballot_word == 0:
        return -1
    return (ballot_word & -ballot_word).bit_length() - 1


def popc(ballot_word: int) -> int:
    """Population count (``__popc``) — number of lanes that voted true."""
    return int(ballot_word).bit_count()


def shfl(values: np.ndarray, src_lane: int) -> int:
    """``__shfl``: every lane reads lane ``src_lane``'s register.

    Since all lanes receive the same value when ``src_lane`` is uniform
    (the only pattern GFSL uses), we return the scalar.  Out-of-range
    source lanes yield 0, mirroring the "default value" hazard the paper
    warns about.
    """
    values = np.asarray(values)
    if src_lane < 0 or src_lane >= values.shape[0]:
        return 0
    return int(values[src_lane])


def shfl_up(values: np.ndarray, delta: int = 1) -> np.ndarray:
    """``__shfl_up``: lane i receives lane i-delta's value; the lowest
    ``delta`` lanes keep their own value (CUDA semantics).

    GFSL's ``executeInsert`` uses this to let every thread read its left
    neighbor's entry (Figure 4.3).
    """
    values = np.asarray(values)
    out = values.copy()
    if delta <= 0:
        return out
    out[delta:] = values[:-delta]
    return out


def shfl_down(values: np.ndarray, delta: int = 1) -> np.ndarray:
    """``__shfl_down``: lane i receives lane i+delta's value; the highest
    ``delta`` lanes keep their own value."""
    values = np.asarray(values)
    out = values.copy()
    if delta <= 0:
        return out
    out[:-delta] = values[delta:]
    return out


def full_mask(team_size: int) -> int:
    """Active mask with the low ``team_size`` lanes set."""
    if not 1 <= team_size <= BALLOT_BITS:
        raise ValueError("team size must be in [1, 32]")
    return (1 << team_size) - 1
