"""Reference oracle: the numpy update-group checks of ``update_wave``.

``repro.core.vector`` decides whether one target chunk's operation
group can run batched (``_batchable``) and builds the chunk image it
publishes (``_chunk_image``) on Python ints.  This module keeps the
numpy versions they replaced, so the fuzz can assert the two make the
same accept/reject decision and publish the same image.  Only tests
import it.
"""

from __future__ import annotations

import numpy as np

from repro.core import constants as C
from repro.core.chunk import pack_next

_OP_INSERT = 1


def batchable(geo, W: np.ndarray, op_sel: np.ndarray, key_sel: np.ndarray):
    """The live entries (uint64 array) if the group is batchable on the
    chunk image ``W``, else None."""
    mask32 = np.uint64(C.MASK32)
    if int(W[geo.lock_idx]) != C.UNLOCKED:
        return None
    dk = (W[: geo.dsize] & mask32).astype(np.int64)
    live = dk != C.EMPTY_KEY
    if not bool(((dk != C.EMPTY_KEY) & (dk != C.NEG_INF_KEY)).any()):
        return None
    nlive = int(np.count_nonzero(live))
    ins = op_sel == _OP_INSERT
    n_ins = int(np.count_nonzero(ins))
    n_del = int(op_sel.size) - n_ins
    if nlive + n_ins > geo.dsize:
        return None
    if nlive - n_del <= geo.merge_threshold:
        return None
    maxf = int(W[geo.next_idx] & mask32)
    if bool((key_sel > maxf).any()):
        return None
    dk_live = dk[live]
    ins_present = np.isin(key_sel[ins], dk_live)
    del_absent = ~np.isin(key_sel[~ins], dk_live)
    if bool(ins_present.any()) or bool(del_absent.any()):
        return None
    if n_ins and bool((key_sel[~ins] == maxf).any()):
        return None
    return W[: geo.dsize][live]


def chunk_image(geo, entries: np.ndarray, op_sel: np.ndarray,
                key_sel: np.ndarray, val_sel: np.ndarray, maxf: int,
                nxt: int) -> np.ndarray:
    """The published word image of the group (uint64 array)."""
    mask32 = np.uint64(C.MASK32)
    ins = op_sel == _OP_INSERT
    del_keys = key_sel[~ins]
    ekeys = (entries & mask32).astype(np.int64)
    kept = entries[~np.isin(ekeys, del_keys)]
    if ins.any():
        new = (key_sel[ins].astype(np.uint64)
               | (val_sel[ins].astype(np.uint64) << np.uint64(32)))
        kept = np.concatenate([kept, new])
    kept = kept[np.argsort((kept & mask32).astype(np.int64),
                           kind="stable")]
    img = np.full(geo.n, np.uint64(C.EMPTY_KV), dtype=np.uint64)
    img[: kept.size] = kept
    if bool((del_keys == maxf).any()):
        maxf = int((kept[-1] & mask32))
    img[geo.next_idx] = np.uint64(pack_next(maxf, nxt))
    img[geo.lock_idx] = np.uint64(C.UNLOCKED)
    return img
